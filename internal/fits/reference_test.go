package fits_test

import (
	"bytes"
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"

	"ffis/internal/apps/montage"
	"ffis/internal/fits"
	"ffis/internal/trace"
	"ffis/internal/vfs"
)

// refCard is the byte-at-a-time card builder Write must reproduce.
func refCard(key, value string) []byte {
	c := fmt.Sprintf("%-8s= %20s", key, value)
	for len(c) < 80 {
		c += " "
	}
	return []byte(c[:80])
}

// refEncode builds the header and the data separately, one byte per shift,
// and appends one to the other.
func refEncode(im *fits.Image) []byte {
	var hdr []byte
	hdr = append(hdr, refCard("SIMPLE", "T")...)
	hdr = append(hdr, refCard("BITPIX", "-64")...)
	hdr = append(hdr, refCard("NAXIS", "2")...)
	hdr = append(hdr, refCard("NAXIS1", strconv.Itoa(im.Width))...)
	hdr = append(hdr, refCard("NAXIS2", strconv.Itoa(im.Height))...)
	hdr = append(hdr, refCard("CRVAL1", strconv.FormatFloat(im.CRVAL1, 'f', 6, 64))...)
	hdr = append(hdr, refCard("CRVAL2", strconv.FormatFloat(im.CRVAL2, 'f', 6, 64))...)
	end := "END"
	for len(end) < 80 {
		end += " "
	}
	hdr = append(hdr, end...)
	for len(hdr)%fits.BlockSize != 0 {
		hdr = append(hdr, ' ')
	}
	data := make([]byte, ((im.Width*im.Height*8)+fits.BlockSize-1)/fits.BlockSize*fits.BlockSize)
	for i, v := range im.Data {
		bits := math.Float64bits(v)
		for b := 0; b < 8; b++ {
			data[i*8+b] = byte(bits >> (8 * uint(7-b)))
		}
	}
	return append(hdr, data...)
}

// refDecode is the byte-at-a-time decoder, error texts included.
func refDecode(raw []byte) (*fits.Image, error) {
	const bs = fits.BlockSize
	if len(raw) < bs {
		return nil, &fits.FormatError{Msg: "file shorter than one header block"}
	}
	hdr := map[string]string{}
	end := false
	blocks := 0
	for !end {
		if (blocks+1)*bs > len(raw) {
			return nil, &fits.FormatError{Msg: "header END card missing"}
		}
		block := raw[blocks*bs : (blocks+1)*bs]
		for c := 0; c < bs/80; c++ {
			line := string(block[c*80 : (c+1)*80])
			key := strings.TrimSpace(line[:8])
			if key == "END" {
				end = true
				break
			}
			if key == "" {
				continue
			}
			if line[8] != '=' {
				return nil, &fits.FormatError{Msg: "malformed card: " + strings.TrimSpace(line)}
			}
			hdr[key] = strings.TrimSpace(line[10:])
		}
		blocks++
	}
	switch {
	case hdr["SIMPLE"] != "T":
		return nil, &fits.FormatError{Msg: "not a SIMPLE FITS file"}
	case hdr["BITPIX"] != "-64":
		return nil, &fits.FormatError{Msg: "unsupported BITPIX " + hdr["BITPIX"]}
	case hdr["NAXIS"] != "2":
		return nil, &fits.FormatError{Msg: "unsupported NAXIS " + hdr["NAXIS"]}
	}
	w, err := strconv.Atoi(hdr["NAXIS1"])
	if err != nil || w <= 0 || w > 1<<16 {
		return nil, &fits.FormatError{Msg: "bad NAXIS1 " + hdr["NAXIS1"]}
	}
	h, err := strconv.Atoi(hdr["NAXIS2"])
	if err != nil || h <= 0 || h > 1<<16 {
		return nil, &fits.FormatError{Msg: "bad NAXIS2 " + hdr["NAXIS2"]}
	}
	crval1, err := strconv.ParseFloat(hdr["CRVAL1"], 64)
	if err != nil {
		return nil, &fits.FormatError{Msg: "bad CRVAL1 " + hdr["CRVAL1"]}
	}
	crval2, err := strconv.ParseFloat(hdr["CRVAL2"], 64)
	if err != nil {
		return nil, &fits.FormatError{Msg: "bad CRVAL2 " + hdr["CRVAL2"]}
	}
	need := blocks*bs + w*h*8
	if len(raw) < need {
		return nil, &fits.FormatError{Msg: fmt.Sprintf("data truncated: need %d bytes, have %d", need, len(raw))}
	}
	im := &fits.Image{Width: w, Height: h, CRVAL1: crval1, CRVAL2: crval2, Data: make([]float64, w*h)}
	for i := range im.Data {
		var bits uint64
		for b := 0; b < 8; b++ {
			bits = bits<<8 | uint64(raw[blocks*bs+i*8+b])
		}
		im.Data[i] = math.Float64frombits(bits)
	}
	return im, nil
}

// specialImage holds the values a byte-order slip would garble visibly:
// a NaN with a payload, both infinities, negative zero and subnormals.
func specialImage() *fits.Image {
	im := fits.New(7, 3)
	im.CRVAL1, im.CRVAL2 = -0.5, 1e-7
	special := []float64{
		math.Float64frombits(0x7FF8_0000_DEAD_BEEF), math.Inf(1), math.Inf(-1),
		math.Copysign(0, -1), math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		math.Float64frombits(0x000F_FFFF_FFFF_FFFF), math.MaxFloat64, 1,
	}
	for i := range im.Data {
		im.Data[i] = special[i%len(special)]
	}
	return im
}

// written returns the bytes fits.Write leaves in a MemFS and the size of
// each of its write calls, as trace.Recorder saw them.
func written(t *testing.T, im *fits.Image) ([]byte, []int) {
	t.Helper()
	rec := trace.NewRecorder(vfs.NewMemFS())
	if err := fits.Write(rec, "/t.fits", im); err != nil {
		t.Fatal(err)
	}
	var sizes []int
	for _, op := range rec.Log() {
		if op.Primitive == vfs.PrimWrite {
			sizes = append(sizes, op.Size)
		}
	}
	raw, err := vfs.ReadFile(rec, "/t.fits")
	if err != nil {
		t.Fatal(err)
	}
	return raw, sizes
}

// read stores raw in a MemFS and parses it with fits.Read.
func read(t *testing.T, raw []byte) (*fits.Image, error) {
	t.Helper()
	fs := vfs.NewMemFS()
	if err := vfs.WriteFile(fs, "/t.fits", raw); err != nil {
		t.Fatal(err)
	}
	return fits.Read(fs, "/t.fits", nil)
}

// TestEncodeMatchesReferenceEncoder pins the block-streaming Write and the
// buffer-reusing Read to the byte-at-a-time codec: identical bytes and
// BlockSize write calls for every Montage tile, an image of special values
// and one whose last data block is partly filled; bit-identical read-back
// pixels; and the same FormatError text for truncated and
// header-corrupted streams.
func TestEncodeMatchesReferenceEncoder(t *testing.T) {
	cfg := montage.DefaultConfig()
	var images []*fits.Image
	for i, spec := range cfg.TileSpecs() {
		images = append(images, cfg.Observe(spec, i))
	}
	if len(images) != 10 {
		t.Fatalf("%d montage tiles, want 10", len(images))
	}
	partial := fits.New(19, 19) // 361 pixels: one full data block and one pixel
	for i := range partial.Data {
		partial.Data[i] = float64(i) - 180.25
	}
	images = append(images, specialImage(), partial)
	for i, im := range images {
		raw, sizes := written(t, im)
		want := refEncode(im)
		if !bytes.Equal(raw, want) {
			t.Fatalf("image %d: Write differs from the reference (len %d vs %d)", i, len(raw), len(want))
		}
		if len(sizes) != len(want)/fits.BlockSize {
			t.Fatalf("image %d: %d write calls, want %d", i, len(sizes), len(want)/fits.BlockSize)
		}
		for k, n := range sizes {
			if n != fits.BlockSize {
				t.Fatalf("image %d: write %d has %d bytes, want %d", i, k, n, fits.BlockSize)
			}
		}
		got, err := read(t, raw)
		if err != nil {
			t.Fatalf("image %d: %v", i, err)
		}
		ref, _ := refDecode(raw)
		if got.Width != ref.Width || got.Height != ref.Height || got.CRVAL1 != ref.CRVAL1 || got.CRVAL2 != ref.CRVAL2 {
			t.Fatalf("image %d: header %+v, want %+v", i, got, ref)
		}
		for p := range ref.Data {
			if math.Float64bits(got.Data[p]) != math.Float64bits(ref.Data[p]) {
				t.Fatalf("image %d pixel %d: %#x, want %#x", i, p, math.Float64bits(got.Data[p]), math.Float64bits(ref.Data[p]))
			}
		}
	}

	raw := refEncode(images[0])
	corrupt := map[string]func([]byte) []byte{
		"empty":           func(b []byte) []byte { return nil },
		"short header":    func(b []byte) []byte { return b[:fits.BlockSize-1] },
		"header only":     func(b []byte) []byte { return b[:fits.BlockSize] },
		"truncated data":  func(b []byte) []byte { return b[:len(b)-fits.BlockSize] },
		"simple flag":     func(b []byte) []byte { b[29] = 'F'; return b },
		"bitpix":          func(b []byte) []byte { copy(b[90:], "      8             "); return b },
		"naxis":           func(b []byte) []byte { b[2*80+29] = '3'; return b },
		"naxis1 garbage":  func(b []byte) []byte { b[3*80+25] = 'x'; return b },
		"naxis2 zero":     func(b []byte) []byte { copy(b[4*80+10:], "                   0"); return b },
		"crval1 garbage":  func(b []byte) []byte { b[5*80+12] = 'q'; return b },
		"crval2 garbage":  func(b []byte) []byte { b[6*80+12] = 'q'; return b },
		"malformed card":  func(b []byte) []byte { b[2*80+8] = '#'; return b },
		"end destroyed":   func(b []byte) []byte { copy(b[7*80:], "XXX"); return b },
		"end and no data": func(b []byte) []byte { copy(b[7*80:], "XXX"); return b[:fits.BlockSize] },
	}
	for name, mut := range corrupt {
		in := mut(append([]byte(nil), raw...))
		_, err := read(t, in)
		_, want := refDecode(in)
		if want == nil {
			t.Fatalf("%s: reference accepted the corruption", name)
		}
		if _, ok := err.(*fits.FormatError); !ok || err.Error() != want.Error() {
			t.Errorf("%s: err = %v, want %v", name, err, want)
		}
	}
}

// TestStoreHeaderMatchesReadBack: StoreHeader gives an image the header
// the reference decoder reads from the reference encoding, or its error,
// for CRVALs the six-decimal, 80-column card moves or cuts, and Write
// emits the reference bytes for them.
func TestStoreHeaderMatchesReadBack(t *testing.T) {
	values := []float64{
		0, 12.9999999, -1e-7, 1e300, -1e300, math.MaxFloat64, math.NaN(), math.Inf(1), math.Inf(-1),
		-9223372036854775808, 123456789012345678901234567890.5,
	}
	for _, w := range []int{3, 0} {
		for _, v := range values {
			im := fits.New(w, 2)
			im.CRVAL1, im.CRVAL2 = v, -v
			raw := refEncode(im)
			if w > 0 {
				if got, _ := written(t, im); !bytes.Equal(got, raw) {
					t.Fatalf("CRVAL %v: Write differs from the reference", v)
				}
			}
			ref, wantErr := refDecode(raw)
			err := im.StoreHeader()
			if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
				t.Fatalf("width %d CRVAL %v: err = %v, want %v", w, v, err, wantErr)
			}
			if err == nil && (math.Float64bits(im.CRVAL1) != math.Float64bits(ref.CRVAL1) ||
				math.Float64bits(im.CRVAL2) != math.Float64bits(ref.CRVAL2)) {
				t.Fatalf("CRVAL %v: StoreHeader gives %v, %v; read-back %v, %v", v, im.CRVAL1, im.CRVAL2, ref.CRVAL1, ref.CRVAL2)
			}
		}
	}
}
