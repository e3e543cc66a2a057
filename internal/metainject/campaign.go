// Package metainject implements the paper's HDF5 metadata fault-injection
// study (Section IV-D): byte-by-byte corruption of the metadata block that
// the HDF5 library writes in its penultimate write call, outcome
// classification through the Nyx halo-finder post-analysis, per-field
// attribution (Table III), the directed per-field study of the six
// SDC-prone fields (Table IV), and the detection + auto-correction
// methodology of Section V-A.
package metainject

import (
	"fmt"
	"sort"
	"strings"

	"ffis/internal/apps/nyx"
	"ffis/internal/classify"
	"ffis/internal/hdf5"
	"ffis/internal/stats"
	"ffis/internal/vfs"
)

// CampaignConfig controls the byte-by-byte metadata campaign.
type CampaignConfig struct {
	// Sim/Halo configure the Nyx dataset and its post-analysis.
	Sim  nyx.SimConfig
	Halo nyx.HaloConfig
	// Stride > 1 samples every Stride-th byte (for cheap test runs);
	// 1 reproduces the exhaustive per-byte study.
	Stride int
	// Seed selects the bit flipped in each byte.
	Seed uint64
}

// Case is one metadata fault-injection case.
type Case struct {
	Offset  int
	Bit     int
	Field   hdf5.FieldRange
	Outcome classify.Outcome
}

// Result aggregates a metadata campaign.
type Result struct {
	MetaSize int
	Tally    classify.Tally
	Cases    []Case
	// PerField tallies outcomes per format field name.
	PerField map[string]*classify.Tally
}

// FieldsWithOutcome lists the field names that produced the given outcome,
// sorted, as in the "Example Metadata Fields" column of Table III.
func (r *Result) FieldsWithOutcome(o classify.Outcome) []string {
	var out []string
	for name, t := range r.PerField {
		if t.Count(o) > 0 {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// Run executes the metadata campaign: it builds the Nyx application and
// its HDF5 image once, then for every targeted metadata byte writes the
// file with that byte's bit flipped and classifies it with the
// application's own outcome rules (the classify half of nyx.App.Worker,
// average-value detector off).
func Run(cfg CampaignConfig) (*Result, error) {
	if cfg.Stride <= 0 {
		cfg.Stride = 1
	}
	app, err := nyx.NewApp(cfg.Sim, cfg.Halo)
	if err != nil {
		return nil, err
	}
	img, err := app.Image()
	if err != nil {
		return nil, err
	}

	res := &Result{MetaSize: len(img.Meta), PerField: map[string]*classify.Tally{}}
	// One case buffer, its bit flipped for a case and restored once the
	// case is classified, and one halo-finder scratch for every case.
	raw := img.Bytes()
	_, classifyCase := app.Worker()
	rng := stats.NewRNG(cfg.Seed)

	for off := 0; off < len(img.Meta); off += cfg.Stride {
		bit := rng.Intn(8)
		fr, _ := img.Fields.At(off)
		raw[off] ^= 1 << uint(bit)
		// A failed write classifies as the crash of a failed run.
		fs := vfs.NewMemFS()
		fs.MkdirAll("/plt00000")
		outcome := classifyCase(fs, vfs.WriteFile(fs, nyx.OutputPath, raw))
		raw[off] ^= 1 << uint(bit)
		res.Tally.Add(outcome)
		res.Cases = append(res.Cases, Case{Offset: off, Bit: bit, Field: fr, Outcome: outcome})
		t := res.PerField[fr.Name]
		if t == nil {
			t = &classify.Tally{}
			res.PerField[fr.Name] = t
		}
		t.Add(outcome)
	}
	return res, nil
}

// RenderTable3 renders the campaign result in the layout of Table III.
func RenderTable3(r *Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table III: output classification of faulty metadata (%d cases over %d metadata bytes)\n",
		r.Tally.Total(), r.MetaSize)
	fmt.Fprintf(&b, "%-10s %10s %8s   %s\n", "fault type", "cases", "rate", "example metadata fields and bytes")
	rows := []struct {
		name string
		o    classify.Outcome
	}{
		{"SDC", classify.SDC},
		{"Benign", classify.Benign},
		{"Detected", classify.Detected},
		{"Crash", classify.Crash},
	}
	for _, row := range rows {
		fields := r.FieldsWithOutcome(row.o)
		const maxShown = 6
		if len(fields) > maxShown {
			fields = append(fields[:maxShown], "...")
		}
		fmt.Fprintf(&b, "%-10s %10d %7.1f%%   %s\n", row.name,
			r.Tally.Count(row.o), 100*r.Tally.Rate(row.o).P(), strings.Join(fields, ", "))
	}
	return b.String()
}
