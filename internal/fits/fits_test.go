package fits

import (
	"math"
	"testing"
	"testing/quick"

	"ffis/internal/stats"
	"ffis/internal/trace"
	"ffis/internal/vfs"
)

func testImage(w, h int) *Image {
	im := New(w, h)
	im.CRVAL1, im.CRVAL2 = 12.5, -3.25
	for i := range im.Data {
		im.Data[i] = float64(i)*0.5 - 7
	}
	return im
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	im := testImage(17, 9)
	got, err := Decode(im.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.Width != 17 || got.Height != 9 {
		t.Fatalf("dims %dx%d", got.Width, got.Height)
	}
	if got.CRVAL1 != 12.5 || got.CRVAL2 != -3.25 {
		t.Fatalf("crval %v %v", got.CRVAL1, got.CRVAL2)
	}
	for i := range im.Data {
		if got.Data[i] != im.Data[i] {
			t.Fatalf("pixel %d: %v != %v", i, got.Data[i], im.Data[i])
		}
	}
}

func TestEncodeBlockAligned(t *testing.T) {
	raw := testImage(64, 64).Encode()
	if len(raw)%BlockSize != 0 {
		t.Fatalf("encoded length %d not block-aligned", len(raw))
	}
}

func TestRoundTripQuick(t *testing.T) {
	f := func(seed uint64) bool {
		r := stats.NewRNG(seed)
		w, h := r.Intn(20)+1, r.Intn(20)+1
		im := New(w, h)
		im.CRVAL1 = r.Float64() * 100
		im.CRVAL2 = -r.Float64() * 100
		for i := range im.Data {
			im.Data[i] = r.NormFloat64() * 1e6
		}
		got, err := Decode(im.Encode())
		if err != nil {
			return false
		}
		for i := range im.Data {
			if got.Data[i] != im.Data[i] {
				return false
			}
		}
		return got.Width == w && got.Height == h
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestDecodeRejectsCorruptHeader(t *testing.T) {
	raw := testImage(8, 8).Encode()
	cases := []struct {
		name string
		mut  func([]byte)
	}{
		{"simple flag", func(b []byte) { b[10+19] = 'F' }},
		{"bitpix", func(b []byte) { copy(b[80+10:], "      8             ") }},
		{"naxis1 garbage", func(b []byte) { b[3*80+25] = 'x' }},
		{"end card destroyed", func(b []byte) { copy(b[7*80:], "XXX") }},
		{"truncated data", nil},
	}
	for _, c := range cases {
		cp := append([]byte(nil), raw...)
		if c.mut != nil {
			c.mut(cp)
		} else {
			cp = cp[:len(cp)-BlockSize]
		}
		if _, err := Decode(cp); err == nil {
			t.Errorf("%s: corruption accepted", c.name)
		} else if !IsFormatError(err) {
			t.Errorf("%s: err = %v, want FormatError", c.name, err)
		}
	}
}

func TestDecodeTooShort(t *testing.T) {
	if _, err := Decode([]byte("SIMPLE")); err == nil {
		t.Fatal("short stream accepted")
	}
}

func TestBilinear(t *testing.T) {
	im := New(3, 3)
	// f(x,y) = x + 10y, exactly reproduced by bilinear interpolation.
	for y := 0; y < 3; y++ {
		for x := 0; x < 3; x++ {
			im.Set(x, y, float64(x)+10*float64(y))
		}
	}
	v, ok := im.Bilinear(0.5, 0.5)
	if !ok || math.Abs(v-5.5) > 1e-12 {
		t.Fatalf("bilinear(0.5,0.5) = %v %v", v, ok)
	}
	v, ok = im.Bilinear(2, 2)
	if !ok || v != 22 {
		t.Fatalf("corner = %v %v", v, ok)
	}
	if _, ok := im.Bilinear(-0.1, 1); ok {
		t.Fatal("out of range accepted")
	}
	if _, ok := im.Bilinear(1, 2.01); ok {
		t.Fatal("out of range accepted")
	}
}

func TestWriteReadVFS(t *testing.T) {
	fs := vfs.NewMemFS()
	fs.MkdirAll("/raw")
	im := testImage(32, 16)
	if err := Write(fs, "/raw/t.fits", im); err != nil {
		t.Fatal(err)
	}
	got, err := Read(fs, "/raw/t.fits")
	if err != nil {
		t.Fatal(err)
	}
	if got.Width != 32 || got.Data[5] != im.Data[5] {
		t.Fatal("content mismatch")
	}
}

func TestWriteUsesBlockWrites(t *testing.T) {
	fs := trace.NewRecorder(vfs.NewMemFS())
	im := testImage(64, 64) // 32768 B data + 2880 header
	if err := Write(fs, "/t.fits", im); err != nil {
		t.Fatal(err)
	}
	raw := im.Encode()
	want := (len(raw) + BlockSize - 1) / BlockSize
	if got := trace.Analyze(fs.Log()).ByPrim[vfs.PrimWrite]; got != want {
		t.Fatalf("writes = %d, want %d", got, want)
	}
}

func TestDecodeSurvivesDataBitFlips(t *testing.T) {
	// Bit flips in the data section must decode fine (values change,
	// format does not) — data corruption is silent at the FITS layer.
	raw := testImage(8, 8).Encode()
	raw[BlockSize+17] ^= 0x40
	im, err := Decode(raw)
	if err != nil {
		t.Fatal(err)
	}
	if im.Width != 8 {
		t.Fatal("dims changed")
	}
}
