package metainject

import (
	"fmt"
	"math"
	"strings"

	"ffis/internal/apps/nyx"
	"ffis/internal/vfs"
)

// FieldCase is one directed corruption of a Table IV SDC-prone field.
type FieldCase struct {
	// Field is the paper's field name.
	Field string
	// Locator matches the FieldMap entry to corrupt.
	Locator string
	// ByteOffset is the byte within the field to flip.
	ByteOffset int
	// Bit is the bit to flip within that byte.
	Bit int
}

// Table4Cases returns the directed injections for the six fields the paper
// identifies as SDC-prone.
func Table4Cases() []FieldCase {
	return []FieldCase{
		// Bit 5 of the class bit field holds the high bit of the
		// mantissa normalization: implied(2) -> none(0).
		{Field: "Mantissa Normalization (bit 5)", Locator: "mantissaNormalization", ByteOffset: 0, Bit: 5},
		// Exponent location 52 -> 54: the exponent is extracted from the
		// wrong bit position.
		{Field: "Exponent Location", Locator: "exponentLocation", ByteOffset: 0, Bit: 1},
		// Mantissa location 0 -> 4.
		{Field: "Mantissa Location", Locator: "float.mantissaLocation", ByteOffset: 0, Bit: 2},
		// Mantissa size 52 -> 60: mantissa swallows exponent bits.
		{Field: "Mantissa Size", Locator: "float.mantissaSize", ByteOffset: 0, Bit: 3},
		// Exponent bias 1023 -> 1019: every value scales by 2^4.
		{Field: "Exponent Bias", Locator: "exponentBias", ByteOffset: 0, Bit: 2},
		// ARD +16 bytes: the data window shifts by two float64 elements.
		{Field: "Address of Raw Data (ARD)", Locator: "addressOfRawData", ByteOffset: 0, Bit: 4},
	}
}

// FieldEffect summarizes how a directed field corruption changed the
// post-analysis result — the metrics of Table IV.
type FieldEffect struct {
	Case FieldCase
	// Crashed reports that the corrupted file no longer parses (not an
	// SDC then).
	Crashed bool

	GoldenHalos int
	FaultyHalos int

	// MassChangedFrac is the fraction of matched halos whose mass
	// changed.
	MassChangedFrac float64
	// MassScaled is true when every matched halo's mass changed by the
	// same multiplicative factor (the Exponent Bias phenomenology).
	MassScaled bool
	MassScale  float64
	// LocChangedFrac is the fraction of matched halos whose center
	// moved by more than 10⁻⁶ cells.
	LocChangedFrac float64
	// LocUniformShift is true when all matched halos moved by the same
	// vector (the ARD phenomenology).
	LocUniformShift bool

	// AverageValue is the dataset mean read through the corrupted
	// metadata (golden value: 1).
	AverageValue float64
}

// FieldStudy performs the directed Table IV injections on a Nyx dataset.
func FieldStudy(sim nyx.SimConfig, halo nyx.HaloConfig) ([]FieldEffect, error) {
	app, err := nyx.NewApp(sim, halo)
	if err != nil {
		return nil, err
	}
	img, err := app.Image()
	if err != nil {
		return nil, err
	}
	golden := app.GoldenCatalog()
	pristine := img.Bytes()

	var out []FieldEffect
	for _, fc := range Table4Cases() {
		ranges := img.Fields.Find(fc.Locator)
		if len(ranges) != 1 {
			return nil, fmt.Errorf("metainject: locator %q matched %d fields", fc.Locator, len(ranges))
		}
		raw := append([]byte(nil), pristine...)
		raw[ranges[0].Offset+fc.ByteOffset] ^= 1 << uint(fc.Bit)

		eff := FieldEffect{Case: fc, GoldenHalos: len(golden.Halos)}
		fs := vfs.NewMemFS()
		fs.MkdirAll("/plt00000")
		if err := vfs.WriteFile(fs, nyx.OutputPath, raw); err != nil {
			return nil, err
		}
		faulty, err := nyx.RunHaloFinder(fs, nyx.OutputPath, halo)
		if err != nil {
			eff.Crashed = true
			out = append(out, eff)
			continue
		}
		eff.FaultyHalos = len(faulty.Halos)
		eff.AverageValue = faulty.Mean
		compareHalos(&eff, golden, faulty)
		out = append(out, eff)
	}
	return out, nil
}

// compareHalos matches halos by mass rank and computes the change metrics.
func compareHalos(eff *FieldEffect, golden, faulty nyx.Catalog) {
	n := len(golden.Halos)
	if len(faulty.Halos) < n {
		n = len(faulty.Halos)
	}
	if n == 0 {
		return
	}
	massChanged, locChanged := 0, 0
	scaleRef := 0.0
	scaled := true
	var shiftRef [3]float64
	uniform := true
	for i := 0; i < n; i++ {
		g, f := golden.Halos[i], faulty.Halos[i]
		if math.Abs(f.Mass-g.Mass) > 1e-9*math.Abs(g.Mass) {
			massChanged++
		}
		ratio := f.Mass / g.Mass
		if i == 0 {
			scaleRef = ratio
		} else if math.Abs(ratio-scaleRef) > 1e-6*math.Abs(scaleRef) {
			scaled = false
		}
		var shift [3]float64
		moved := false
		for k := 0; k < 3; k++ {
			shift[k] = f.Center[k] - g.Center[k]
			if math.Abs(shift[k]) > 1e-6 {
				moved = true
			}
		}
		if moved {
			locChanged++
		}
		if i == 0 {
			shiftRef = shift
		} else {
			for k := 0; k < 3; k++ {
				if math.Abs(shift[k]-shiftRef[k]) > 0.05 {
					uniform = false
				}
			}
		}
	}
	eff.MassChangedFrac = float64(massChanged) / float64(n)
	eff.MassScaled = scaled && massChanged == n
	eff.MassScale = scaleRef
	eff.LocChangedFrac = float64(locChanged) / float64(n)
	eff.LocUniformShift = uniform && locChanged == n
}

// RenderTable4 renders the field study in the layout of Table IV.
func RenderTable4(effects []FieldEffect) string {
	var b strings.Builder
	b.WriteString("Table IV: erroneous post-analysis results with faulty metadata fields causing SDC\n")
	fmt.Fprintf(&b, "%-30s %-26s %-26s %-18s %s\n",
		"field", "halo mass", "halo location", "halo number", "average value")
	for _, e := range effects {
		if e.Crashed {
			fmt.Fprintf(&b, "%-30s %s\n", e.Case.Field, "(file rejected by library: crash, not SDC)")
			continue
		}
		mass := "unchanged"
		switch {
		case e.MassScaled && e.MassChangedFrac == 1:
			mass = fmt.Sprintf("all scaled by %.4g", e.MassScale)
		case e.MassChangedFrac > 0:
			mass = fmt.Sprintf("%.0f%% changed", 100*e.MassChangedFrac)
		}
		loc := "unchanged"
		switch {
		case e.LocUniformShift && e.LocChangedFrac == 1:
			loc = "all shifted uniformly"
		case e.LocChangedFrac > 0:
			loc = fmt.Sprintf("%.0f%% changed", 100*e.LocChangedFrac)
		}
		num := fmt.Sprintf("%d -> %d", e.GoldenHalos, e.FaultyHalos)
		fmt.Fprintf(&b, "%-30s %-26s %-26s %-18s %.4g\n",
			e.Case.Field, mass, loc, num, e.AverageValue)
	}
	return b.String()
}

// ScaleIsPowerOfTwo reports whether x is 2^k for integer k ≠ 0 (within
// floating-point tolerance) — the Exponent Bias detection signature.
func ScaleIsPowerOfTwo(x float64) bool {
	if x <= 0 || math.IsInf(x, 0) || math.IsNaN(x) {
		return false
	}
	l := math.Log2(x)
	r := math.Round(l)
	return r != 0 && math.Abs(l-r) < 1e-6
}
