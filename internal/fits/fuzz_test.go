package fits_test

import (
	"math"
	"path"
	"slices"
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
