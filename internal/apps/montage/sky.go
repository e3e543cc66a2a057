// Package montage is the Montage proxy application: a four-stage
// astronomical image mosaic pipeline (reprojection, overlap differencing,
// background matching, co-addition) over synthetic 2MASS-like tiles of an
// m101-style target, with the per-stage fault-injection campaigns and the
// min-statistic outcome classification the paper uses.
package montage

import (
	"fmt"
	"math"

	"ffis/internal/fits"
	"ffis/internal/stats"
	"ffis/internal/vfs"
)

// Config describes the synthetic observation and mosaic geometry.
type Config struct {
	Seed    uint64
	Tiles   int // number of overlapping input tiles
	TileW   int
	TileH   int
	MosaicW int
	MosaicH int
	// Noise is the per-pixel Gaussian noise level of the detector.
	Noise float64
}

// DefaultConfig returns the experiment geometry: ten 64×64 tiles covering a
// 160×160 mosaic of an m101-like field, as in the paper's 10-image 2MASS
// mosaic.
func DefaultConfig() Config {
	return Config{
		Seed:    101, // m101
		Tiles:   10,
		TileW:   64,
		TileH:   64,
		MosaicW: 160,
		MosaicH: 160,
		Noise:   0.4,
	}
}

// skyTruth evaluates the noiseless sky surface brightness at mosaic
// coordinates: a flat background with a mild gradient, the m101-like galaxy
// (broad Gaussian with a bright core), and a handful of stars.
func (c Config) skyTruth(x, y float64) float64 {
	v := 83.0 + 0.01*x + 0.006*y // background with the "min" sitting near 83
	gx := x - float64(c.MosaicW)/2
	gy := y - float64(c.MosaicH)/2
	r2 := gx*gx + gy*gy
	v += 320 * math.Exp(-r2/(2*22*22)) // galaxy disk
	v += 180 * math.Exp(-r2/(2*4*4))   // galaxy core
	// Fixed star field (positions derived from the mosaic geometry so
	// they are stable across runs).
	stars := [...][3]float64{
		{24, 30, 140}, {130, 40, 210}, {40, 120, 95},
		{120, 132, 160}, {84, 20, 120}, {20, 84, 75},
	}
	for _, s := range stars {
		dx, dy := x-s[0], y-s[1]
		v += s[2] * math.Exp(-(dx*dx+dy*dy)/(2*1.5*1.5))
	}
	return v
}

// TileSpec is one raw observation: its mosaic-frame offset and additive
// background error (what mBgExec must solve for).
type TileSpec struct {
	X0, Y0  float64 // fractional offsets force real resampling
	BgConst float64
	BgX     float64
	BgY     float64
}

// TileSpecs derives deterministic tile placements covering the mosaic with
// generous overlaps, plus per-tile background errors.
func (c Config) TileSpecs() []TileSpec {
	rng := stats.NewRNG(c.Seed)
	specs := make([]TileSpec, c.Tiles)
	// Place tiles on a jittered grid guaranteeing overlap: ~2 columns,
	// rows to cover the mosaic.
	cols := 3
	for i := range specs {
		col := i % cols
		row := i / cols
		maxX := float64(c.MosaicW - c.TileW - 1)
		maxY := float64(c.MosaicH - c.TileH - 1)
		x := float64(col)*float64(c.MosaicW-c.TileW)/float64(cols-1) +
			rng.Float64()*8 - 4
		y := float64(row)*38 + rng.Float64()*8 - 4
		specs[i] = TileSpec{
			X0:      clampF(x, 0, maxX),
			Y0:      clampF(y, 0, maxY),
			BgConst: rng.NormFloat64() * 4,
			BgX:     rng.NormFloat64() * 0.02,
			BgY:     rng.NormFloat64() * 0.02,
		}
	}
	return specs
}

func clampF(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Observe renders the raw detector image for one tile: sky truth plus the
// tile's background error plus pixel noise.
func (c Config) Observe(spec TileSpec, tileIdx int) *fits.Image {
	rng := stats.NewRNG(c.Seed ^ (uint64(tileIdx)+1)*0x9E3779B97F4A7C15)
	im := fits.New(c.TileW, c.TileH)
	im.CRVAL1, im.CRVAL2 = spec.X0, spec.Y0
	for y := 0; y < c.TileH; y++ {
		for x := 0; x < c.TileW; x++ {
			sx := spec.X0 + float64(x)
			sy := spec.Y0 + float64(y)
			v := c.skyTruth(sx, sy) +
				spec.BgConst + spec.BgX*float64(x) + spec.BgY*float64(y) +
				c.Noise*rng.NormFloat64()
			im.Set(x, y, v)
		}
	}
	return im
}

// Paths used by the pipeline stages.
const (
	RawDir    = "/raw"
	ProjDir   = "/proj"
	DiffDir   = "/diff"
	CorrDir   = "/corr"
	MosaicDir = "/mosaic"

	FitsTablePath   = DiffDir + "/fits.txt"
	fitsTableHeader = "# i j a b c npix\n"
	MosaicPath      = MosaicDir + "/mosaic.fits"
	ImagePath       = MosaicDir + "/m101_mosaic.pgm"
	StatsPath       = MosaicDir + "/stats.txt"
)

func rawPath(i int) string  { return fmt.Sprintf("%s/tile%02d.fits", RawDir, i) }
func projPath(i int) string { return fmt.Sprintf("%s/p%02d.fits", ProjDir, i) }
func areaPath(i int) string { return fmt.Sprintf("%s/a%02d.fits", ProjDir, i) }
func diffPath(i, j int) string {
	return fmt.Sprintf("%s/d%02d_%02d.fits", DiffDir, i, j)
}
func corrPath(i int) string { return fmt.Sprintf("%s/c%02d.fits", CorrDir, i) }

// WriteRawTiles synthesizes and persists the raw observations (the
// campaign's fault-free input data).
func (c Config) WriteRawTiles(fs vfs.FS) error {
	if err := fs.MkdirAll(RawDir); err != nil {
		return err
	}
	for i, spec := range c.TileSpecs() {
		if err := fits.Write(fs, rawPath(i), c.Observe(spec, i)); err != nil {
			return err
		}
	}
	return nil
}
