package fits

import (
	"bytes"
	"errors"
	"fmt"
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

// encode returns the bytes Write leaves in a fresh MemFS.
func encode(t testing.TB, im *Image) []byte {
	t.Helper()
	fs := vfs.NewMemFS()
	if err := Write(fs, "/t.fits", im); err != nil {
		t.Fatal(err)
	}
	raw, err := vfs.ReadFile(fs, "/t.fits")
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// decode stores raw in a fresh MemFS and reads it back with Read.
func decode(raw []byte) (*Image, error) {
	fs := vfs.NewMemFS()
	if err := vfs.WriteFile(fs, "/t.fits", raw); err != nil {
		return nil, err
	}
	return Read(fs, "/t.fits", nil)
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	im := testImage(17, 9)
	got, err := decode(encode(t, im))
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
	raw := encode(t, testImage(64, 64))
	if len(raw)%BlockSize != 0 {
		t.Fatalf("encoded length %d not block-aligned", len(raw))
	}
}

// TestEncodeReusesBuffer: Encode into a buffer holding an earlier,
// longer stream returns exactly the bytes Write persists, in that
// buffer's storage.
func TestEncodeReusesBuffer(t *testing.T) {
	buf := Encode(nil, testImage(64, 64))
	for _, im := range []*Image{testImage(17, 9), testImage(19, 19), New(0, 0)} {
		got := Encode(buf, im)
		if !bytes.Equal(got, encode(t, im)) {
			t.Fatalf("%dx%d: Encode into a used buffer differs from Write", im.Width, im.Height)
		}
		if &got[0] != &buf[0] {
			t.Fatalf("%dx%d: Encode allocated although the buffer was large enough", im.Width, im.Height)
		}
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
		got, err := decode(encode(t, im))
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
	raw := encode(t, testImage(8, 8))
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
		if _, err := decode(cp); err == nil {
			t.Errorf("%s: corruption accepted", c.name)
		} else if _, ok := err.(*FormatError); !ok {
			t.Errorf("%s: err = %v, want FormatError", c.name, err)
		}
	}
}

func TestDecodeTooShort(t *testing.T) {
	if _, err := decode([]byte("SIMPLE")); err == nil {
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
	got, err := Read(fs, "/raw/t.fits", nil)
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
	want := 1 + (64*64*8+BlockSize-1)/BlockSize
	if got := trace.Analyze(fs.Log()).ByPrim[vfs.PrimWrite]; got != want {
		t.Fatalf("writes = %d, want %d", got, want)
	}
}

func TestDecodeSurvivesDataBitFlips(t *testing.T) {
	// Bit flips in the data section must decode fine (values change,
	// format does not) — data corruption is silent at the FITS layer.
	raw := encode(t, testImage(8, 8))
	raw[BlockSize+17] ^= 0x40
	im, err := decode(raw)
	if err != nil {
		t.Fatal(err)
	}
	if im.Width != 8 {
		t.Fatal("dims changed")
	}
}

// TestReadReusesImage reads files of three sizes into one image: each
// result equals a fresh Read bit for bit, the large buffers survive the
// small read, and a malformed file fails as it does fresh without spoiling
// the next read.
func TestReadReusesImage(t *testing.T) {
	fs := vfs.NewMemFS()
	sizes := [][2]int{{64, 48}, {5, 3}, {61, 50}}
	for i, wh := range sizes {
		im := testImage(wh[0], wh[1])
		im.CRVAL1 += float64(i)
		im.Data[i] = math.Float64frombits(0x7FF8_0000_0000_0001 + uint64(i))
		if err := Write(fs, fmt.Sprintf("/%d.fits", i), im); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := vfs.ReadFile(fs, "/0.fits")
	if err != nil {
		t.Fatal(err)
	}
	if err := vfs.WriteFile(fs, "/short.fits", raw[:len(raw)-BlockSize]); err != nil {
		t.Fatal(err)
	}

	dst := new(Image)
	var first *float64
	for i := range sizes {
		path := fmt.Sprintf("/%d.fits", i)
		got, err := Read(fs, path, dst)
		if err != nil || got != dst {
			t.Fatalf("%s: Read = %p, %v; want dst", path, got, err)
		}
		want, err := Read(fs, path, nil)
		if err != nil {
			t.Fatal(err)
		}
		sameImage(t, path, got, want)
		if i == 0 {
			first = &dst.Data[0]
		}
	}
	if &dst.Data[0] != first {
		t.Error("pixel buffer reallocated for a file no larger than the first")
	}

	_, fresh := Read(fs, "/short.fits", nil)
	got, err := Read(fs, "/short.fits", dst)
	if _, ok := err.(*FormatError); got != nil || !ok || fresh == nil || err.Error() != fresh.Error() {
		t.Fatalf("truncated file: %v, %v; fresh read gave %v", got, err, fresh)
	}
	last, _ := Read(fs, "/2.fits", nil)
	sameImage(t, "image after a failed read", dst, last)
	if _, err := Read(fs, "/1.fits", dst); err != nil {
		t.Fatalf("read after a failed read: %v", err)
	}
	want, _ := Read(fs, "/1.fits", nil)
	sameImage(t, "/1.fits after failure", dst, want)
}

func sameImage(t *testing.T, name string, got, want *Image) {
	t.Helper()
	if got.Width != want.Width || got.Height != want.Height ||
		math.Float64bits(got.CRVAL1) != math.Float64bits(want.CRVAL1) ||
		math.Float64bits(got.CRVAL2) != math.Float64bits(want.CRVAL2) || len(got.Data) != len(want.Data) {
		t.Fatalf("%s: header %dx%d %v %v (%d px), want %dx%d %v %v (%d px)", name,
			got.Width, got.Height, got.CRVAL1, got.CRVAL2, len(got.Data),
			want.Width, want.Height, want.CRVAL1, want.CRVAL2, len(want.Data))
	}
	for p := range want.Data {
		if math.Float64bits(got.Data[p]) != math.Float64bits(want.Data[p]) {
			t.Fatalf("%s pixel %d: %#x, want %#x", name, p, math.Float64bits(got.Data[p]), math.Float64bits(want.Data[p]))
		}
	}
}

func TestResetZeroesAfterShrinkAndGrow(t *testing.T) {
	im := testImage(20, 10)
	im.Reset(3, 4)
	if im.Width != 3 || im.Height != 4 || len(im.Data) != 12 {
		t.Fatalf("shrink: %dx%d, %d px", im.Width, im.Height, len(im.Data))
	}
	for i := range im.Data {
		im.Data[i] = 9
	}
	im.CRVAL1, im.CRVAL2 = 1, 2
	im.Reset(15, 10) // within the capacity of the first 20×10
	if im.Width != 15 || im.Height != 10 || len(im.Data) != 150 {
		t.Fatalf("grow: %dx%d, %d px", im.Width, im.Height, len(im.Data))
	}
	if im.CRVAL1 != 0 || im.CRVAL2 != 0 {
		t.Fatalf("CRVAL %v %v after Reset", im.CRVAL1, im.CRVAL2)
	}
	for i, v := range im.Data {
		if math.Float64bits(v) != 0 {
			t.Fatalf("pixel %d = %v after Reset", i, v)
		}
	}
}

// failFS hands out files whose Sync and Close fail with the given errors.
type failFS struct {
	vfs.FS
	syncErr, closeErr error
}

type failFile struct {
	vfs.File
	syncErr, closeErr error
}

func (f *failFS) Create(name string) (vfs.File, error) {
	file, err := f.FS.Create(name)
	if err != nil {
		return nil, err
	}
	return &failFile{File: file, syncErr: f.syncErr, closeErr: f.closeErr}, nil
}

func (f *failFile) Sync() error {
	if f.syncErr != nil {
		return f.syncErr
	}
	return f.File.Sync()
}

func (f *failFile) Close() error {
	f.File.Close()
	return f.closeErr
}

func TestWriteReturnsSyncAndCloseErrors(t *testing.T) {
	syncErr, closeErr := errors.New("sync failed"), errors.New("close failed")
	cases := []struct {
		name            string
		syncErr, closed error
		want            error
	}{
		{"close", nil, closeErr, closeErr},
		{"sync before close", syncErr, closeErr, syncErr},
		{"neither", nil, nil, nil},
	}
	for _, c := range cases {
		fs := &failFS{FS: vfs.NewMemFS(), syncErr: c.syncErr, closeErr: c.closed}
		if err := Write(fs, "/t.fits", testImage(4, 4)); err != c.want {
			t.Errorf("%s: Write = %v, want %v", c.name, err, c.want)
		}
	}
}
