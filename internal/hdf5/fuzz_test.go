package hdf5_test

import (
	"errors"
	"testing"

	"ffis/internal/apps/nyx"
	"ffis/internal/hdf5"
)

// FuzzHDF5Parse checks the reader's contract on arbitrary bytes: Parse
// never panics, and every error it returns is a FormatError — the
// library's own rejection, which the campaigns classify as a crash. The
// corpus is seeded with a Nyx plotfile, whole and cut.
func FuzzHDF5Parse(f *testing.F) {
	sim := nyx.DefaultSim()
	sim.N, sim.NumHalos = 9, 3
	img, err := nyx.BuildImage(sim.Generate(), sim.N)
	if err != nil {
		f.Fatal(err)
	}
	raw := img.Bytes()
	f.Add(raw)
	f.Add(raw[:len(raw)/2])
	f.Add(raw[:96])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, raw []byte) {
		file, err := hdf5.Parse(raw)
		if err != nil {
			var fe *hdf5.FormatError
			if !errors.As(err, &fe) {
				t.Fatalf("Parse error %v is not a FormatError", err)
			}
			return
		}
		for _, d := range file.Datasets {
			var fe *hdf5.FormatError
			if _, err := file.ReadValues(d); err != nil && !errors.As(err, &fe) {
				t.Fatalf("ReadValues(%s) error %v is not a FormatError", d.Name, err)
			}
		}
	})
}
