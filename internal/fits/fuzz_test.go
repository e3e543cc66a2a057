package fits_test

import (
	"bytes"
	"math"
	"path"
	"slices"
	"strings"
	"testing"

	"ffis/internal/apps/montage"
	"ffis/internal/fits"
	"ffis/internal/vfs"
)

// FuzzReadReuse checks the property per-slot scratch images rely on:
// reading arbitrary bytes into a dirty, previously used Image gives the
// same image, or the same error, as reading them into a fresh one — and a
// failed read leaves the dirty image as it was. The corpus is seeded with
// the files the Montage stages write, plus cut and empty ones.
func FuzzReadReuse(f *testing.F) {
	pipeline := vfs.NewMemFS()
	cfg := montage.DefaultConfig()
	if err := cfg.WriteRawTiles(pipeline); err != nil {
		f.Fatal(err)
	}
	if err := cfg.RunPipeline(pipeline, montage.StageProject, montage.StageAdd); err != nil {
		f.Fatal(err)
	}
	// One file of each kind: raw tile, projection, area, difference,
	// corrected tile, mosaic.
	var seeds [][]byte
	kinds := map[string]bool{}
	err := vfs.Walk(pipeline, "/", func(p string, _ vfs.FileInfo) error {
		kind := path.Dir(p) + path.Base(p)[:1]
		if path.Ext(p) != ".fits" || kinds[kind] {
			return nil
		}
		kinds[kind] = true
		raw, err := vfs.ReadFile(pipeline, p)
		seeds = append(seeds, raw)
		return err
	})
	if err != nil || len(seeds) != 6 {
		f.Fatalf("seeding from the Montage pipeline: %d files, %v", len(seeds), err)
	}
	for _, raw := range seeds {
		f.Add(raw)
		f.Add(raw[:len(raw)-fits.BlockSize])
		f.Add(raw[:fits.BlockSize])
	}
	f.Add([]byte{})
	addHeaderSeeds(f)

	f.Fuzz(func(t *testing.T, raw []byte) {
		fs := vfs.NewMemFS()
		for i, seed := range seeds[:2] {
			if err := vfs.WriteFile(fs, "/seed"+string(rune('0'+i)), seed); err != nil {
				t.Fatal(err)
			}
		}
		if err := vfs.WriteFile(fs, "/in", raw); err != nil {
			t.Fatal(err)
		}
		want, wantErr := fits.Read(fs, "/in", nil)
		// The in-place header scan and the slice-walking decode against
		// the map-based, byte-at-a-time reference.
		ref, refErr := refDecode(raw)
		switch {
		case (wantErr == nil) != (refErr == nil):
			t.Fatalf("Read error %v, reference error %v", wantErr, refErr)
		case wantErr != nil:
			if _, ok := wantErr.(*fits.FormatError); !ok || wantErr.Error() != refErr.Error() {
				t.Fatalf("Read error %q, reference error %q", wantErr, refErr)
			}
		case !sameImage(want, ref):
			t.Fatalf("Read gave %dx%d at (%v, %v), reference %dx%d at (%v, %v) (or pixels differ)",
				want.Width, want.Height, want.CRVAL1, want.CRVAL2, ref.Width, ref.Height, ref.CRVAL1, ref.CRVAL2)
		}
		// Dirty images: one read from a larger file, one from a smaller
		// file and then scribbled on.
		big, err := fits.Read(fs, "/seed0", nil)
		if err != nil {
			t.Fatal(err)
		}
		small, err := fits.Read(fs, "/seed1", nil)
		if err != nil {
			t.Fatal(err)
		}
		small.Reset(3, 2)
		small.Data[5], small.CRVAL1 = math.NaN(), 7
		for _, dirty := range []*fits.Image{big, small} {
			before := *dirty
			before.Data = slices.Clone(dirty.Data)
			got, err := fits.Read(fs, "/in", dirty)
			switch {
			case (err == nil) != (wantErr == nil):
				t.Fatalf("dirty read error %v, fresh read error %v", err, wantErr)
			case err != nil:
				if err.Error() != wantErr.Error() {
					t.Fatalf("dirty read error %q, fresh read error %q", err, wantErr)
				}
				if !sameImage(dirty, &before) {
					t.Fatal("a failed read changed the image it was given")
				}
			case got != dirty || !sameImage(got, want):
				t.Fatalf("dirty read gave %dx%d, fresh read %dx%d (or pixels differ)", got.Width, got.Height, want.Width, want.Height)
			}
		}
	})
}

// sameImage compares header and pixels bit for bit, so NaNs compare too.
func sameImage(a, b *fits.Image) bool {
	if a.Width != b.Width || a.Height != b.Height || len(a.Data) != len(b.Data) ||
		math.Float64bits(a.CRVAL1) != math.Float64bits(b.CRVAL1) ||
		math.Float64bits(a.CRVAL2) != math.Float64bits(b.CRVAL2) {
		return false
	}
	for i := range a.Data {
		if math.Float64bits(a.Data[i]) != math.Float64bits(b.Data[i]) {
			return false
		}
	}
	return true
}

// addHeaderSeeds adds the header shapes where the in-place card scan and
// the map-based reference could part: duplicate and blank keys, cards
// without "=", a missing END, keys and values padded with non-ASCII
// whitespace, and truncated data.
func addHeaderSeeds(f *testing.F) {
	im := fits.New(5, 3)
	im.CRVAL1, im.CRVAL2 = 12.25, -3.5
	for i := range im.Data {
		im.Data[i] = float64(i) * 1.5
	}
	good := refEncode(im)
	card := func(b []byte, i int, text string) []byte {
		c := b[i*80 : (i+1)*80]
		copy(c, text+strings.Repeat(" ", 80-len(text)))
		return b
	}
	mutated := func(mut func([]byte) []byte) []byte { return mut(append([]byte(nil), good...)) }
	f.Add(good)
	// A duplicate key: the last value wins, for a key read and one ignored.
	f.Add(mutated(func(b []byte) []byte { return card(card(b, 7, "NAXIS1  =                    4"), 8, "END") }))
	f.Add(mutated(func(b []byte) []byte { return card(card(b, 7, "NAXIS1  =                  999"), 8, "END") }))
	f.Add(mutated(func(b []byte) []byte { return card(card(b, 7, "COMMENT =                    x"), 8, "END") }))
	// A blank key before END, and blank keys whose card has no "=".
	f.Add(mutated(func(b []byte) []byte { return card(card(b, 7, "        =                    1"), 8, "END") }))
	f.Add(mutated(func(b []byte) []byte { return card(card(b, 7, "          no equals sign here"), 8, "END") }))
	// A card without "=" under a key.
	f.Add(mutated(func(b []byte) []byte { return card(b, 3, "NAXIS1    64") }))
	// No END: in the only block, and in a second block that is cut short.
	f.Add(mutated(func(b []byte) []byte { return card(b, 7, "") }))
	f.Add(mutated(func(b []byte) []byte { return card(b, 7, "")[:fits.BlockSize] }))
	f.Add(mutated(func(b []byte) []byte {
		return append(card(b[:fits.BlockSize], 7, ""), bytes.Repeat([]byte(" "), fits.BlockSize-1)...)
	}))
	// END in a second header block.
	f.Add(mutated(func(b []byte) []byte {
		hdr := card(b[:fits.BlockSize:fits.BlockSize], 7, "")
		next := card(bytes.Repeat([]byte(" "), fits.BlockSize), 0, "END")
		return append(append(hdr, next...), b[fits.BlockSize:]...)
	}))
	// Non-ASCII whitespace (NBSP, NEL, EN QUAD, ideographic space, line
	// separator) around keys, values and END, a lone continuation byte,
	// and a rune cut at the key's eighth column.
	f.Add(mutated(func(b []byte) []byte { return card(b, 2, "\u00a0NAXIS =                    2\u3000") }))
	f.Add(mutated(func(b []byte) []byte { return card(b, 0, "SIMPLE\u0085=                    T") }))
	f.Add(mutated(func(b []byte) []byte { return card(b, 4, "NAXIS2  = \u2000                 3\u00a0") }))
	f.Add(mutated(func(b []byte) []byte { return card(b, 4, "NAXIS2  =                    3\x85") }))
	f.Add(mutated(func(b []byte) []byte { return card(b, 7, "END    \xe3\x80\x80") }))
	f.Add(mutated(func(b []byte) []byte { return card(b, 7, "\u2028END") }))
	// Truncated data, by one byte and by everything.
	f.Add(good[:len(good)-fits.BlockSize+5*3*8-1])
	f.Add(good[:len(good)-fits.BlockSize+5*3*8])
	f.Add(good[:fits.BlockSize])
}
