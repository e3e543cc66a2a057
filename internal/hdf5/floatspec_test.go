package hdf5

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"

	"ffis/internal/stats"
)

func TestIEEEDoubleRoundTrip(t *testing.T) {
	spec := IEEE754Double()
	for _, v := range []float64{
		0, 1, -1, 0.5, 2, 1e-300, 1e300, math.Pi, -math.E,
		math.SmallestNonzeroFloat64, math.MaxFloat64,
	} {
		raw := spec.Encode(v)
		if got := spec.Decode(raw); got != v {
			t.Errorf("roundtrip(%g) = %g", v, got)
		}
	}
}

func TestIEEEDoubleDecodeMatchesHardware(t *testing.T) {
	// The generic field-driven decoder must agree bit-for-bit with the
	// hardware interpretation for the IEEE spec — this is what makes an
	// uncorrupted metadata read return exactly the written data.
	spec := IEEE754Double()
	f := func(bits uint64) bool {
		want := math.Float64frombits(bits)
		raw := make([]byte, 8)
		for i := range raw {
			raw[i] = byte(bits >> (8 * uint(i)))
		}
		got := spec.Decode(raw)
		if math.IsNaN(want) {
			return math.IsNaN(got)
		}
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestIEEESingleDecode(t *testing.T) {
	spec := IEEE754Single()
	for _, v := range []float64{0, 1, -2.5, 1024, 0.015625} {
		raw := spec.Encode(v)
		if got := spec.Decode(raw); got != v {
			t.Errorf("single roundtrip(%g) = %g", v, got)
		}
	}
	if spec.ExpBias != 0x7F {
		t.Fatalf("single bias = %#x, want 0x7f (paper's correction example)", spec.ExpBias)
	}
}

func TestDecodeSpecials(t *testing.T) {
	spec := IEEE754Double()
	if got := spec.Decode(spec.Encode(math.Inf(1))); !math.IsInf(got, 1) {
		t.Errorf("+inf = %v", got)
	}
	if got := spec.Decode(spec.Encode(math.Inf(-1))); !math.IsInf(got, -1) {
		t.Errorf("-inf = %v", got)
	}
	if got := spec.Decode(spec.Encode(math.NaN())); !math.IsNaN(got) {
		t.Errorf("nan = %v", got)
	}
	// Negative zero keeps its sign.
	negZero := spec.Decode(spec.Encode(math.Copysign(0, -1)))
	if negZero != 0 || !math.Signbit(negZero) {
		t.Errorf("-0 = %v (signbit %v)", negZero, math.Signbit(negZero))
	}
}

func TestDecodeDenormal(t *testing.T) {
	spec := IEEE754Double()
	v := math.SmallestNonzeroFloat64
	if got := spec.Decode(spec.Encode(v)); got != v {
		t.Errorf("denormal = %g, want %g", got, v)
	}
}

// TestBiasFaultScalesByPowerOfTwo reproduces the Exponent Bias phenomenology
// of Table IV / Figure 5b: decreasing the bias by k scales every decoded
// value by 2^k, leaving relative structure intact.
func TestBiasFaultScalesByPowerOfTwo(t *testing.T) {
	good := IEEE754Double()
	faulty := good
	faulty.ExpBias -= 12 // the paper's example: 0x7f -> 0x73 scales by 2^12
	rng := stats.NewRNG(5)
	for i := 0; i < 200; i++ {
		v := rng.Float64()*3 + 0.1
		raw := good.Encode(v)
		got := faulty.Decode(raw)
		want := v * 4096
		if math.Abs(got-want)/want > 1e-12 {
			t.Fatalf("bias fault: decode(%g) = %g, want %g", v, got, want)
		}
	}
}

// TestNormalizationFaultShrinksValues reproduces the Mantissa Normalization
// bit-5 SDC: implied-MSB (2) corrupted to none (0) subtracts the leading 1,
// driving the dataset average from 1 toward ~0.5.
func TestNormalizationFaultShrinksValues(t *testing.T) {
	good := IEEE754Double()
	faulty := good
	faulty.Norm = NormNone
	rng := stats.NewRNG(7)
	var sumGood, sumBad float64
	const n = 2000
	for i := 0; i < n; i++ {
		v := 0.5 + rng.Float64() // mean 1.0
		raw := good.Encode(v)
		sumGood += v
		sumBad += faulty.Decode(raw)
	}
	meanGood, meanBad := sumGood/n, sumBad/n
	if math.Abs(meanGood-1) > 0.02 {
		t.Fatalf("setup: golden mean = %v", meanGood)
	}
	if meanBad >= meanGood || meanBad < 0.2 {
		t.Fatalf("normalization fault mean = %v, want substantially below 1", meanBad)
	}
}

// TestMantissaSizeFaultChangesValues reproduces the Mantissa Size SDC:
// geometry corruption garbles decoded values without erroring.
func TestMantissaSizeFaultChangesValues(t *testing.T) {
	good := IEEE754Double()
	faulty := good
	faulty.MantSize = 44 // one flipped bit: 52 ^ 0x18... pick a plausible corruption
	v := 1.7
	raw := good.Encode(v)
	got := faulty.Decode(raw)
	if math.IsNaN(got) {
		t.Fatal("mantissa-size corruption should still decode to a value")
	}
	if got == v {
		t.Fatal("mantissa-size corruption silently produced the original value")
	}
}

func TestNormAlwaysSetDecode(t *testing.T) {
	// Same field geometry as IEEE binary64 but with the mantissa MSB
	// stored explicitly (one bit less precision).
	spec := IEEE754Double()
	spec.Norm = NormAlwaysSet
	// Encode/decode consistency for the always-set path.
	for _, v := range []float64{1.0, 1.5, 3.25, 0.75} {
		raw := spec.Encode(v)
		got := spec.Decode(raw)
		if math.Abs(got-v)/v > 1e-9 {
			t.Errorf("always-set roundtrip(%g) = %g", v, got)
		}
	}
}

func TestDecodeToleratesInsaneGeometry(t *testing.T) {
	// Decode must be total: corrupted geometry yields values (possibly
	// Inf/NaN/0) but never panics — silent misinterpretation, not crash.
	rng := stats.NewRNG(11)
	for i := 0; i < 5000; i++ {
		spec := FloatSpec{
			Size:         uint32(rng.Intn(8) + 1),
			BitOffset:    uint16(rng.Uint64()),
			BitPrecision: uint16(rng.Uint64()),
			ExpLocation:  uint8(rng.Uint64()),
			ExpSize:      uint8(rng.Uint64()),
			MantLocation: uint8(rng.Uint64()),
			MantSize:     uint8(rng.Uint64()),
			ExpBias:      uint32(rng.Uint64()),
			SignLocation: uint8(rng.Uint64()),
			Norm:         Normalization(rng.Intn(3)),
		}
		raw := make([]byte, 8)
		for j := range raw {
			raw[j] = byte(rng.Uint64())
		}
		_ = spec.Decode(raw) // must not panic
	}
}

func TestValidateRejectsImpossible(t *testing.T) {
	s := IEEE754Double()
	s.Size = 0
	if s.Validate() == nil {
		t.Error("size 0 accepted")
	}
	s = IEEE754Double()
	s.Size = 16
	if s.Validate() == nil {
		t.Error("size 16 accepted")
	}
	s = IEEE754Double()
	s.Norm = 3
	if s.Validate() == nil {
		t.Error("normalization 3 accepted")
	}
	if err := IEEE754Double().Validate(); err != nil {
		t.Errorf("IEEE double rejected: %v", err)
	}
}

func TestConstraintsOK(t *testing.T) {
	if !IEEE754Double().ConstraintsOK() {
		t.Error("IEEE double should satisfy constraints")
	}
	if !IEEE754Single().ConstraintsOK() {
		t.Error("IEEE single should satisfy constraints")
	}
	s := IEEE754Double()
	s.MantSize = 50 // violates ExpLocation == MantSize
	if s.ConstraintsOK() {
		t.Error("corrupted mantissa size should violate constraints")
	}
	s = IEEE754Double()
	s.ExpLocation = 40
	if s.ConstraintsOK() {
		t.Error("corrupted exponent location should violate constraints")
	}
}

func TestDecodeSliceAndEncodeSlice(t *testing.T) {
	spec := IEEE754Double()
	vals := []float64{1, 2.5, -3, 0, 1e10}
	raw := spec.EncodeSlice(vals)
	if len(raw) != 40 {
		t.Fatalf("raw len = %d", len(raw))
	}
	got, err := spec.DecodeInto(nil, raw, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := range vals {
		if got[i] != vals[i] {
			t.Errorf("slice[%d] = %v, want %v", i, got[i], vals[i])
		}
	}
	if _, err := spec.DecodeInto(nil, raw, 6); err == nil {
		t.Fatal("short raw accepted")
	}
}

// TestIEEESliceMatchesScalarCodec pins the word-at-a-time IEEE-double slice
// codec to the element-wise one on random 64-bit patterns plus the special
// values: EncodeSlice bytes equal concatenated Encode bytes, DecodeInto
// values equal Decode values bit for bit (any NaN for a NaN pattern, since
// the scalar decoder canonicalizes NaNs), and short input keeps its error.
func TestIEEESliceMatchesScalarCodec(t *testing.T) {
	spec := IEEE754Double()
	rng := stats.NewRNG(23)
	vals := []float64{
		math.Float64frombits(0x7FF8_0000_DEAD_BEEF), math.Inf(1), math.Inf(-1),
		math.Copysign(0, -1), math.SmallestNonzeroFloat64, math.MaxFloat64,
	}
	for len(vals) < 4096 {
		vals = append(vals, math.Float64frombits(rng.Uint64()))
	}
	raw := spec.EncodeSlice(vals)
	var want []byte
	for _, v := range vals {
		want = append(want, spec.Encode(v)...)
	}
	if !bytes.Equal(raw, want) {
		t.Fatal("EncodeSlice differs from element-wise Encode")
	}
	got, err := spec.DecodeInto(nil, raw, len(vals))
	if err != nil {
		t.Fatal(err)
	}
	for i := range vals {
		w := spec.Decode(raw[i*8 : i*8+8])
		if math.Float64bits(got[i]) != math.Float64bits(w) && !(math.IsNaN(got[i]) && math.IsNaN(w)) {
			t.Fatalf("element %d (%#x): DecodeInto %#x, Decode %#x", i, math.Float64bits(vals[i]), math.Float64bits(got[i]), math.Float64bits(w))
		}
		if math.Float64bits(got[i]) != math.Float64bits(vals[i]) {
			t.Fatalf("element %d: DecodeInto %#x, encoded %#x", i, math.Float64bits(got[i]), math.Float64bits(vals[i]))
		}
	}
	_, err = spec.DecodeInto(nil, raw[:len(raw)-1], len(vals))
	if want := "hdf5: raw data truncated: need 32768 bytes, have 32767"; err == nil || err.Error() != want {
		t.Fatalf("short input: err = %v, want %q", err, want)
	}
}

func TestDecodeSliceNonIEEE(t *testing.T) {
	spec := IEEE754Single()
	vals := []float64{1, 0.5, -4}
	raw := spec.EncodeSlice(vals)
	if len(raw) != 12 {
		t.Fatalf("raw len = %d", len(raw))
	}
	got, err := spec.DecodeInto(nil, raw, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range vals {
		if got[i] != vals[i] {
			t.Errorf("slice[%d] = %v, want %v", i, got[i], vals[i])
		}
	}
}

func TestGenericEncodeRoundTripQuick(t *testing.T) {
	// Generic (non-fast-path) encode/decode round-trips within float32
	// precision for the IEEE single spec.
	spec := IEEE754Single()
	f := func(seed uint64) bool {
		r := stats.NewRNG(seed)
		v := (r.Float64() - 0.5) * 2000
		got := spec.Decode(spec.Encode(v))
		if v == 0 {
			return got == 0
		}
		return math.Abs(got-v)/math.Abs(v) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestEncodeSaturation(t *testing.T) {
	spec := IEEE754Single()
	raw := spec.Encode(1e100) // beyond float32 range
	if got := spec.Decode(raw); !math.IsInf(got, 1) {
		t.Errorf("overflow encode = %v, want +inf", got)
	}
	raw = spec.Encode(1e-100) // below float32 denormal range
	if got := spec.Decode(raw); got != 0 {
		t.Errorf("underflow encode = %v, want 0", got)
	}
}
