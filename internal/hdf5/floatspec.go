// Package hdf5 is a from-scratch, pure-Go implementation of the subset of
// the HDF5 binary file format that the paper's Nyx workload exercises:
// version-0 superblock, version-1 object headers with dataspace / datatype /
// fill-value / data-layout messages, and the version-1 B-tree + symbol-table
// node + local-heap machinery that implements groups.
//
// Two properties matter for reproducing the paper's HDF5 metadata study:
//
//  1. The reader derives its floating-point decoding entirely from the
//     datatype message fields (bit offset/precision, exponent location /
//     size / bias, mantissa location / size / normalization, sign
//     location). Corrupting any of those on-disk fields therefore changes
//     how raw data is interpreted exactly as the real library's would —
//     a faulty Exponent Bias rescales every value by a power of two, a
//     faulty Mantissa Size garbles value extraction, and so on (Table IV).
//
//  2. The writer records a FieldMap attributing every metadata byte to the
//     format field it encodes, which is what lets the byte-by-byte
//     injection campaign of Table III report per-field outcomes.
package hdf5

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
)

// Normalization enumerates the mantissa normalization modes of the HDF5
// floating-point datatype bit field (bits 4-5 of the class bit field).
type Normalization uint8

// Mantissa normalization values from the HDF5 specification.
const (
	// NormNone: no normalization; the mantissa is a plain fraction.
	NormNone Normalization = 0
	// NormAlwaysSet: the most significant bit of the mantissa is stored
	// and always set.
	NormAlwaysSet Normalization = 1
	// NormImplied: the most significant mantissa bit is not stored but
	// implied to be 1 (IEEE 754 behaviour).
	NormImplied Normalization = 2
)

// FloatSpec is the floating-point property layout of an HDF5 datatype
// message (Figure 1 of the paper, bottom panel). All bit positions are
// relative to the least significant bit of the little-endian element word.
type FloatSpec struct {
	// Size is the element width in bytes (max 8).
	Size uint32
	// BitOffset is the bit offset of the first significant bit. Stored
	// and validated but not applied during decoding — mirroring the
	// library behaviour the paper observed (faults in this field are
	// benign).
	BitOffset uint16
	// BitPrecision is the number of significant bits (also benign).
	BitPrecision uint16
	// ExpLocation is the bit position of the exponent field.
	ExpLocation uint8
	// ExpSize is the exponent width in bits.
	ExpSize uint8
	// MantLocation is the bit position of the mantissa field.
	MantLocation uint8
	// MantSize is the mantissa width in bits.
	MantSize uint8
	// ExpBias is subtracted from the stored exponent.
	ExpBias uint32
	// SignLocation is the bit position of the sign bit.
	SignLocation uint8
	// Norm is the mantissa normalization mode.
	Norm Normalization
}

// IEEE754Double returns the spec describing the standard little-endian
// IEEE 754 binary64 layout, the datatype Nyx datasets use.
func IEEE754Double() FloatSpec {
	return FloatSpec{
		Size:         8,
		BitOffset:    0,
		BitPrecision: 64,
		ExpLocation:  52,
		ExpSize:      11,
		MantLocation: 0,
		MantSize:     52,
		ExpBias:      1023,
		SignLocation: 63,
		Norm:         NormImplied,
	}
}

// IEEE754Single returns the spec for little-endian IEEE 754 binary32.
// Its exponent bias 0x7F is the one the paper's correction example uses
// (0x7F corrupted to 0x73 scales data by 2^12).
func IEEE754Single() FloatSpec {
	return FloatSpec{
		Size:         4,
		BitOffset:    0,
		BitPrecision: 32,
		ExpLocation:  23,
		ExpSize:      8,
		MantLocation: 0,
		MantSize:     23,
		ExpBias:      127,
		SignLocation: 31,
		Norm:         NormImplied,
	}
}

// IsIEEEDouble reports whether the spec is bit-for-bit IEEE binary64, in
// which case codec fast paths apply.
func (s FloatSpec) IsIEEEDouble() bool { return s == IEEE754Double() }

// Validate checks the structural constraints the HDF5 library enforces at
// datatype decode time. Geometry that merely produces strange values (the
// SDC cases of Table IV) passes; only impossible layouts fail.
func (s FloatSpec) Validate() error {
	if s.Size == 0 || s.Size > 8 {
		return fmt.Errorf("hdf5: unsupported float size %d", s.Size)
	}
	if s.Norm > NormImplied {
		return fmt.Errorf("hdf5: invalid mantissa normalization %d", s.Norm)
	}
	return nil
}

// ConstraintsOK reports whether the floating-point geometry satisfies the
// IEEE-style invariants the paper's correction methodology exploits
// (Section V-A): the exponent sits immediately above the mantissa
// (ExpLocation == MantSize with MantLocation == 0) and mantissa + exponent
// + sign fill the precision (MantSize + ExpSize == BitPrecision - 1).
func (s FloatSpec) ConstraintsOK() bool {
	return s.MantLocation == 0 &&
		uint16(s.ExpLocation) == uint16(s.MantSize) &&
		uint16(s.MantSize)+uint16(s.ExpSize) == s.BitPrecision-1 &&
		uint16(s.SignLocation) == s.BitPrecision-1
}

func mask64(width uint8) uint64 {
	if width >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << width) - 1
}

// word assembles the little-endian element bytes into a uint64.
func (s FloatSpec) word(raw []byte) uint64 {
	var w uint64
	n := int(s.Size)
	if n > len(raw) {
		n = len(raw)
	}
	for i := 0; i < n; i++ {
		w |= uint64(raw[i]) << (8 * uint(i))
	}
	return w
}

// Decode interprets one raw element according to the spec. It is total: no
// input panics, and geometry corrupted into nonsense yields ±Inf, NaN, or
// denormal-style values rather than errors — silent misinterpretation is
// precisely the mechanism behind the paper's metadata SDCs.
func (s FloatSpec) Decode(raw []byte) float64 {
	w := s.word(raw)
	sign := 1.0
	if s.SignLocation < 64 && (w>>s.SignLocation)&1 == 1 {
		sign = -1
	}
	var exp uint64
	if s.ExpLocation < 64 {
		exp = (w >> s.ExpLocation) & mask64(s.ExpSize)
	}
	var mant uint64
	if s.MantLocation < 64 {
		mant = (w >> s.MantLocation) & mask64(s.MantSize)
	}

	expAllOnes := s.ExpSize > 0 && s.ExpSize < 64 && exp == mask64(s.ExpSize)
	if expAllOnes && s.Norm == NormImplied {
		if mant == 0 {
			return sign * math.Inf(1)
		}
		return math.NaN()
	}

	mantScale := math.Ldexp(1, int(s.MantSize)) // 2^MantSize
	var m float64
	var e int
	switch s.Norm {
	case NormImplied:
		if exp == 0 {
			// Denormal: implied bit absent, exponent pinned.
			m = float64(mant) / mantScale
			e = 1 - int(s.ExpBias)
		} else {
			m = 1 + float64(mant)/mantScale
			e = int(exp) - int(s.ExpBias)
		}
	case NormAlwaysSet:
		// MSB stored: mantissa is m/2^(MantSize-1), nominally in [1,2).
		if s.MantSize == 0 {
			m = 0
		} else {
			m = float64(mant) / math.Ldexp(1, int(s.MantSize)-1)
		}
		e = int(exp) - int(s.ExpBias)
	default: // NormNone — also what a corrupted normalization field decodes as
		m = float64(mant) / mantScale
		e = int(exp) - int(s.ExpBias)
	}
	if m == 0 {
		return sign * 0
	}
	// Ldexp saturates to ±Inf / 0 for extreme exponents, which is what a
	// wildly corrupted bias produces.
	return sign * math.Ldexp(m, e)
}

// Encode renders v according to the spec. For the IEEE binary64 spec the
// encoding is bit-exact (it round-trips Decode for every finite float64).
// For other geometries it performs a round-to-nearest generic encoding;
// values outside the representable range saturate.
func (s FloatSpec) Encode(v float64) []byte {
	out := make([]byte, s.Size)
	if s.IsIEEEDouble() {
		bits := math.Float64bits(v)
		for i := 0; i < 8; i++ {
			out[i] = byte(bits >> (8 * uint(i)))
		}
		return out
	}
	var w uint64
	sign := uint64(0)
	if math.Signbit(v) {
		sign = 1
		v = -v
	}
	switch {
	case math.IsInf(v, 0):
		w = mask64(s.ExpSize) << s.ExpLocation
	case math.IsNaN(v):
		w = mask64(s.ExpSize)<<s.ExpLocation | 1<<s.MantLocation
	case v == 0:
		w = 0
	default:
		frac, exp := math.Frexp(v) // v = frac * 2^exp, frac in [0.5, 1)
		m := frac * 2              // [1, 2)
		e := exp - 1
		stored := int64(e) + int64(s.ExpBias)
		switch {
		case stored <= 0: // underflow to zero (denormals not emitted)
			w = 0
		case uint64(stored) >= mask64(s.ExpSize): // overflow to inf
			w = mask64(s.ExpSize) << s.ExpLocation
		default:
			var mantBits uint64
			switch s.Norm {
			case NormImplied:
				mantBits = uint64(math.Round((m - 1) * math.Ldexp(1, int(s.MantSize))))
				if mantBits > mask64(s.MantSize) { // rounding carried out
					mantBits = 0
					stored++
				}
			case NormAlwaysSet:
				mantBits = uint64(math.Round(m * math.Ldexp(1, int(s.MantSize)-1)))
				if mantBits > mask64(s.MantSize) {
					mantBits = mask64(s.MantSize)
				}
			default:
				mantBits = uint64(math.Round(m*math.Ldexp(1, int(s.MantSize)))) >> 1
				if mantBits > mask64(s.MantSize) {
					mantBits = mask64(s.MantSize)
				}
			}
			w = mantBits<<s.MantLocation | uint64(stored)<<s.ExpLocation
		}
	}
	if s.SignLocation < 64 {
		w |= sign << s.SignLocation
	}
	for i := 0; i < int(s.Size); i++ {
		out[i] = byte(w >> (8 * uint(i)))
	}
	return out
}

// DecodeInto decodes count consecutive elements from raw into dst's
// storage when its capacity suffices and into a new slice otherwise. Short
// input yields an error — the condition the reader hits when a corrupted
// layout address points past end-of-file.
func (s FloatSpec) DecodeInto(dst []float64, raw []byte, count int) ([]float64, error) {
	need := count * int(s.Size)
	if len(raw) < need {
		return nil, fmt.Errorf("hdf5: raw data truncated: need %d bytes, have %d", need, len(raw))
	}
	out := slices.Grow(dst[:0], count)[:count]
	if s.IsIEEEDouble() {
		for i := range out {
			out[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[i*8:]))
		}
		return out, nil
	}
	for i := range out {
		out[i] = s.Decode(raw[i*int(s.Size) : (i+1)*int(s.Size)])
	}
	return out, nil
}

// EncodeSlice encodes values into a contiguous raw buffer.
func (s FloatSpec) EncodeSlice(values []float64) []byte {
	out := make([]byte, len(values)*int(s.Size))
	if s.IsIEEEDouble() {
		for i, v := range values {
			binary.LittleEndian.PutUint64(out[i*8:], math.Float64bits(v))
		}
		return out
	}
	for i, v := range values {
		copy(out[i*int(s.Size):], s.Encode(v))
	}
	return out
}
