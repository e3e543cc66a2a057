package metainject

import (
	"fmt"
	"math"

	"ffis/internal/apps/nyx"
	"ffis/internal/hdf5"
	"ffis/internal/stats"
)

// Diagnosis names the metadata fault category identified by the
// average-value detection methodology of Section V-A.
type Diagnosis int

// Diagnosis values.
const (
	// DiagHealthy: the average is 1 and the ARD matches the metadata
	// size; no correctable fault is present.
	DiagHealthy Diagnosis = iota
	// DiagExponentBias: the average scaled by a power of two.
	DiagExponentBias
	// DiagGeometry: the floating-point field layout violates the
	// IEEE-style constraints (Exponent/Mantissa Location/Size faults;
	// average typically lands between 1 and 2).
	DiagGeometry
	// DiagNormalization: the mantissa normalization lost its implied
	// bit (average collapses toward ~0.55).
	DiagNormalization
	// DiagARD: the average is 1 yet the Address of Raw Data disagrees
	// with the metadata size — the fault the average value cannot see.
	DiagARD
	// DiagUnknown: corrupted in a way this methodology cannot attribute.
	DiagUnknown
)

func (d Diagnosis) String() string {
	switch d {
	case DiagHealthy:
		return "healthy"
	case DiagExponentBias:
		return "exponent-bias"
	case DiagGeometry:
		return "float-geometry"
	case DiagNormalization:
		return "mantissa-normalization"
	case DiagARD:
		return "address-of-raw-data"
	case DiagUnknown:
		return "unknown"
	default:
		return fmt.Sprintf("diagnosis(%d)", int(d))
	}
}

// Diagnose applies the paper's detection rules to a (possibly corrupted)
// HDF5 file image containing the named dataset:
//
//  1. average ≈ 1 (nyx.DetectByAverage sees no deviation) → check the ARD
//     against the metadata size (ARD faults are invisible to the average);
//  2. average a power of two → Exponent Bias fault;
//  3. float-geometry constraints violated → Exponent/Mantissa
//     Location/Size fault;
//  4. normalization no longer implied-MSB → Mantissa Normalization fault.
func Diagnose(raw []byte, dataset string) (Diagnosis, error) {
	f, err := hdf5.Parse(raw)
	if err != nil {
		return DiagUnknown, err
	}
	ds, err := f.Dataset(dataset)
	if err != nil {
		return DiagUnknown, err
	}
	values, err := f.ReadValues(ds)
	if err != nil {
		// The data window fell outside the file: an extreme ARD fault.
		if ds.DataOffset != f.MetadataEnd {
			return DiagARD, nil
		}
		return DiagUnknown, err
	}
	avg := stats.Mean(values)
	switch {
	case !nyx.DetectByAverage(avg):
		if ds.DataOffset != f.MetadataEnd {
			return DiagARD, nil
		}
		return DiagHealthy, nil
	case ScaleIsPowerOfTwo(avg):
		return DiagExponentBias, nil
	case !ds.Spec.ConstraintsOK():
		return DiagGeometry, nil
	case ds.Spec.Norm != hdf5.NormImplied:
		return DiagNormalization, nil
	default:
		return DiagUnknown, nil
	}
}

func putU32(raw []byte, off int, v uint32) {
	raw[off] = byte(v)
	raw[off+1] = byte(v >> 8)
	raw[off+2] = byte(v >> 16)
	raw[off+3] = byte(v >> 24)
}

func putU64(raw []byte, off int, v uint64) {
	for i := 0; i < 8; i++ {
		raw[off+i] = byte(v >> (8 * uint(i)))
	}
}

// Correct diagnoses raw and, when the fault is one of the correctable
// categories, patches the metadata in place (on a copy) using the paper's
// correction methodology:
//
//   - Exponent Bias: re-scale the bias by log₂ of the observed average
//     (the paper's 0x7F→0x73 example, corrected by adding 12);
//   - Geometry: enforce Mantissa Location = 0, Exponent Location =
//     Mantissa Size = precision − 1 − Exponent Size;
//   - Normalization: restore the implied-MSB mode;
//   - ARD: set the Address of Raw Data back to the metadata size.
//
// It returns the repaired image and the diagnosis. The repair is verified:
// if the corrected file still fails the average test, an error is returned.
func Correct(raw []byte, dataset string) ([]byte, Diagnosis, error) {
	diag, err := Diagnose(raw, dataset)
	if err != nil {
		return nil, diag, err
	}
	if diag == DiagHealthy {
		return raw, diag, nil
	}
	if diag == DiagUnknown {
		return nil, diag, fmt.Errorf("metainject: fault not correctable by this methodology")
	}

	f, err := hdf5.Parse(raw)
	if err != nil {
		return nil, diag, err
	}
	ds, err := f.Dataset(dataset)
	if err != nil {
		return nil, diag, err
	}
	fixed := append([]byte(nil), raw...)

	switch diag {
	case DiagExponentBias:
		values, err := f.ReadValues(ds)
		if err != nil {
			return nil, diag, err
		}
		delta := int32(math.Round(math.Log2(stats.Mean(values))))
		putU32(fixed, ds.Offsets.ExpBias, uint32(int32(ds.Spec.ExpBias)+delta))

	case DiagGeometry:
		prec := ds.Spec.BitPrecision
		expSize := ds.Spec.ExpSize
		mantSize := uint8(prec - 1 - uint16(expSize))
		fixed[ds.Offsets.MantLocation] = 0
		fixed[ds.Offsets.MantSize] = mantSize
		fixed[ds.Offsets.ExpLocation] = mantSize

	case DiagNormalization:
		fixed[ds.Offsets.ClassBitField0] = uint8(hdf5.NormImplied) << 4

	case DiagARD:
		putU64(fixed, ds.Offsets.ARD, f.MetadataEnd)
	}

	// Verify the repair.
	after, err := Diagnose(fixed, dataset)
	if err != nil {
		return nil, diag, fmt.Errorf("metainject: repair verification failed: %w", err)
	}
	if after != DiagHealthy {
		return nil, diag, fmt.Errorf("metainject: repair left diagnosis %s", after)
	}
	return fixed, diag, nil
}
