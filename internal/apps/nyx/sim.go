// Package nyx is the Nyx proxy application: an adaptive-mesh cosmology code
// stand-in that produces a 3-D baryon density field, persists it as an HDF5
// dataset through the vfs layer, and analyses it with the Friends-of-Friends
// halo finder the paper uses as Nyx's post-analysis.
//
// The proxy preserves the two properties the paper's Nyx results hinge on:
//
//   - mass conservation — the density field has mean exactly 1, which powers
//     the average-value SDC detector of Section V;
//   - a mean-relative halo threshold (81.66 × the dataset average), which is
//     what masks small data corruptions and amplifies large ones.
package nyx

import (
	"math"

	"ffis/internal/hdf5"
	"ffis/internal/stats"
	"ffis/internal/vfs"
)

// DatasetName is the HDF5 link name of the density field, matching the
// field the paper's halo finder consumes.
const DatasetName = "baryon_density"

// SimConfig parameterizes the synthetic cosmology run.
type SimConfig struct {
	// N is the grid edge: the field has N³ cells.
	N int
	// Seed drives all synthetic randomness; identical seeds give
	// bit-identical fields.
	Seed uint64
	// NumHalos is the number of seeded overdensities.
	NumHalos int
	// Sigma is the log-normal width of the background field.
	Sigma float64
	// PeakMin/PeakMax bound the halo peak amplitudes (in units of the
	// mean density; the halo threshold is 81.66).
	PeakMin, PeakMax float64
	// RadiusMin/RadiusMax bound the halo Gaussian radii in cells.
	RadiusMin, RadiusMax float64
}

// DefaultSim returns the configuration used by the experiments: a 48³ grid
// (≈0.9 MB of float64 payload, 221 device blocks) with a dozen halos.
func DefaultSim() SimConfig {
	return SimConfig{
		N:         48,
		Seed:      20210802, // the paper's arXiv v2 date
		NumHalos:  12,
		Sigma:     0.45,
		PeakMin:   150,
		PeakMax:   420,
		RadiusMin: 0.9,
		RadiusMax: 1.3,
	}
}

// Generate synthesizes the baryon density field. The background is
// log-normal; halo overdensities are Gaussian blobs whose peaks clear the
// halo-finder threshold. The background is scaled down so that the combined
// field has mean 1 without squashing the halo peaks, then the exact mean is
// pinned to 1 — honouring the law of mass conservation the average-value
// detector relies on.
func (c SimConfig) Generate() []float64 {
	rng := stats.NewRNG(c.Seed)
	n := c.N
	cells := n * n * n
	bg := make([]float64, cells)
	adj := -c.Sigma * c.Sigma / 2
	for i := range bg {
		bg[i] = math.Exp(c.Sigma*rng.NormFloat64() + adj)
	}
	// Seeded halos on a separate layer: keep centers away from the
	// boundary so a halo's cells stay contiguous in index space.
	halo := make([]float64, cells)
	for h := 0; h < c.NumHalos; h++ {
		cx := float64(rng.Intn(n-8) + 4)
		cy := float64(rng.Intn(n-8) + 4)
		cz := float64(rng.Intn(n-8) + 4)
		peak := c.PeakMin + rng.Float64()*(c.PeakMax-c.PeakMin)
		radius := c.RadiusMin + rng.Float64()*(c.RadiusMax-c.RadiusMin)
		// Only cells within 4 radii matter.
		reach := int(4 * radius)
		for dz := -reach; dz <= reach; dz++ {
			for dy := -reach; dy <= reach; dy++ {
				for dx := -reach; dx <= reach; dx++ {
					x, y, z := int(cx)+dx, int(cy)+dy, int(cz)+dz
					if x < 0 || y < 0 || z < 0 || x >= n || y >= n || z >= n {
						continue
					}
					d2 := float64(dx*dx + dy*dy + dz*dz)
					halo[(z*n+y)*n+x] += peak * math.Exp(-d2/(2*radius*radius))
				}
			}
		}
	}
	// Scale the background so total mass equals the cell count (mean 1),
	// leaving halo peaks untouched. If halos alone exceed the mass
	// budget, keep a floor of background and let the final exact
	// renormalization absorb the rest.
	haloMass := stats.Mean(halo) * float64(cells)
	bgMass := stats.Mean(bg) * float64(cells)
	scale := (float64(cells) - haloMass) / bgMass
	if scale < 0.1 {
		scale = 0.1
	}
	field := bg
	for i := range field {
		field[i] = field[i]*scale + halo[i]
	}
	// Pin the mean to exactly 1 (a no-op scaling in the common case).
	inv := 1 / stats.Mean(field)
	for i := range field {
		field[i] *= inv
	}
	return field
}

// BuildImage packs the field into an HDF5 file image (metadata + raw data +
// field map), which both the plain writer and the metadata-injection
// campaigns consume.
func BuildImage(field []float64, n int) (*hdf5.FileImage, error) {
	return hdf5.NewBuilder().AddDataset(hdf5.DatasetSpec{
		Name:   DatasetName,
		Dims:   []uint64{uint64(n), uint64(n), uint64(n)},
		Values: field,
	}).Build()
}

// WriteDataset persists the field as an HDF5 file at path using the
// library's characteristic I/O sequence (raw data writes, then the packed
// metadata write, then the EOF stamp).
func WriteDataset(fs vfs.FS, path string, field []float64, n int) error {
	img, err := BuildImage(field, n)
	if err != nil {
		return err
	}
	return img.WriteTo(fs, path)
}

// ReadDataset loads the density field back. Any format violation surfaces
// as an hdf5.FormatError — the proxy for an HDF5 library exception.
func ReadDataset(fs vfs.FS, path string) ([]float64, int, error) {
	raw, err := vfs.ReadFile(fs, path)
	if err != nil {
		return nil, 0, err
	}
	d, vals, err := decodeField(raw, nil)
	if err != nil {
		return nil, 0, err
	}
	return vals, int(d.Dims[0]), nil
}

// decodeField parses a plotfile and decodes its cubic density dataset into
// dst's storage when its capacity suffices.
func decodeField(raw []byte, dst []float64) (*hdf5.Dataset, []float64, error) {
	f, err := hdf5.Parse(raw)
	if err != nil {
		return nil, nil, err
	}
	d, err := f.Dataset(DatasetName)
	if err != nil {
		return nil, nil, err
	}
	vals, err := f.ReadValuesInto(d, dst)
	if err != nil {
		return nil, nil, err
	}
	if len(d.Dims) != 3 || d.Dims[0] != d.Dims[1] || d.Dims[1] != d.Dims[2] {
		return nil, nil, &hdf5.FormatError{Field: "dataspace", Msg: "expected cubic 3-D dataset"}
	}
	return d, vals, nil
}
