package montage

import (
	"fmt"
	"math"
	"strings"

	"ffis/internal/fits"
	"ffis/internal/vfs"
)

// Stage identifies one of the four I/O-intensive Montage stages the paper
// injects into (Section V-B-c).
type Stage int

// The four instrumented pipeline stages.
const (
	StageProject Stage = iota + 1 // mProjExec: reproject each image
	StageDiff                     // mDiffExec: difference overlapping pairs
	StageBg                       // mBgExec: apply background matching
	StageAdd                      // mAdd (+ image generation): co-add mosaic
)

func (s Stage) String() string {
	switch s {
	case StageProject:
		return "mProjExec"
	case StageDiff:
		return "mDiffExec"
	case StageBg:
		return "mBgExec"
	case StageAdd:
		return "mAdd"
	default:
		return fmt.Sprintf("stage(%d)", int(s))
	}
}

// Stages lists the instrumented stages in execution order.
func Stages() []Stage { return []Stage{StageProject, StageDiff, StageBg, StageAdd} }

// scratch holds the images and buffers of one run slot, one per role.
// Every stage overwrites what it uses before reading it — fits.Read
// decodes whole images, Reset zeroes them, the PGM is rebuilt from empty —
// so a scratch carries nothing from one run into the next, even from a
// run that failed midway.
type scratch struct {
	tiles, areas                        []fits.Image // runDiff keeps every tile live
	in, out, area, diff, mosaic, weight fits.Image
	pgm, img                            []byte
}

func (c Config) newScratch() *scratch {
	return &scratch{tiles: make([]fits.Image, c.Tiles), areas: make([]fits.Image, c.Tiles)}
}

// runStage executes one pipeline stage, reading its inputs from and
// writing its outputs to fs, with sc's images.
func (c Config) runStage(fs vfs.FS, s Stage, sc *scratch) error {
	switch s {
	case StageProject:
		return c.runProject(fs, sc)
	case StageDiff:
		return c.runDiff(fs, sc)
	case StageBg:
		return c.runBg(fs, sc)
	case StageAdd:
		return c.runAdd(fs, sc)
	default:
		return fmt.Errorf("montage: unknown stage %d", int(s))
	}
}

// RunPipeline executes stages [from, to] inclusive.
func (c Config) RunPipeline(fs vfs.FS, from, to Stage) error {
	return c.pipeline(fs, from, to, c.newScratch())
}

func (c Config) pipeline(fs vfs.FS, from, to Stage, sc *scratch) error {
	for _, s := range Stages() {
		if s < from || s > to {
			continue
		}
		if err := c.runStage(fs, s, sc); err != nil {
			return fmt.Errorf("montage: %s: %w", s, err)
		}
	}
	return nil
}

// runProject resamples each raw tile onto the integer mosaic grid
// (bilinear), producing a projected image and a fractional-coverage area
// image per tile. Like every stage, it reuses one image per role across
// its loop, so a run allocates for its largest tile, not for every tile.
func (c Config) runProject(fs vfs.FS, sc *scratch) error {
	if err := fs.MkdirAll(ProjDir); err != nil {
		return err
	}
	raw, proj, area := &sc.in, &sc.out, &sc.area
	for i := 0; i < c.Tiles; i++ {
		if _, err := fits.Read(fs, rawPath(i), raw); err != nil {
			return err
		}
		x0 := int(math.Ceil(raw.CRVAL1))
		y0 := int(math.Ceil(raw.CRVAL2))
		w := raw.Width - 1 // resampling loses up to one boundary pixel
		h := raw.Height - 1
		proj.Reset(w, h)
		proj.CRVAL1, proj.CRVAL2 = float64(x0), float64(y0)
		area.Reset(w, h)
		area.CRVAL1, area.CRVAL2 = float64(x0), float64(y0)
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				tx := float64(x0+x) - raw.CRVAL1
				ty := float64(y0+y) - raw.CRVAL2
				if v, ok := raw.Bilinear(tx, ty); ok {
					proj.Set(x, y, v)
					area.Set(x, y, 1)
				}
			}
		}
		if err := fits.Write(fs, projPath(i), proj); err != nil {
			return err
		}
		if err := fits.Write(fs, areaPath(i), area); err != nil {
			return err
		}
	}
	return nil
}

// overlap computes the intersection of two projected tiles in mosaic
// coordinates.
func overlap(a, b *fits.Image) (x0, y0, x1, y1 int, ok bool) {
	ax0, ay0 := int(a.CRVAL1), int(a.CRVAL2)
	bx0, by0 := int(b.CRVAL1), int(b.CRVAL2)
	x0 = max(ax0, bx0)
	y0 = max(ay0, by0)
	x1 = min(ax0+a.Width, bx0+b.Width)
	y1 = min(ay0+a.Height, by0+b.Height)
	return x0, y0, x1, y1, x1 > x0 && y1 > y0
}

// planeSums accumulates the normal equations m·p = rhs of the
// least-squares plane d ≈ p[0] + p[1]·x + p[2]·y one sample at a time; x,y
// are mosaic coordinates.
type planeSums struct {
	m   [3][3]float64
	rhs [3]float64
	n   int
}

func (s *planeSums) add(x, y, d float64) {
	v := [3]float64{1, x, y}
	for r := 0; r < 3; r++ {
		for cc := 0; cc < 3; cc++ {
			s.m[r][cc] += v[r] * v[cc]
		}
		s.rhs[r] += v[r] * d
	}
	s.n++
}

// diffSums scans a difference image in row order and sums every covered
// (non-NaN) pixel into the plane fit.
func diffSums(diff *fits.Image) planeSums {
	var s planeSums
	for y := 0; y < diff.Height; y++ {
		for x := 0; x < diff.Width; x++ {
			if d := diff.At(x, y); !math.IsNaN(d) {
				s.add(diff.CRVAL1+float64(x), diff.CRVAL2+float64(y), d)
			}
		}
	}
	return s
}

// solve3 solves a 3×3 linear system by Gaussian elimination with partial
// pivoting.
func solve3(m [3][3]float64, rhs [3]float64) ([3]float64, error) {
	for col := 0; col < 3; col++ {
		pivot := col
		for r := col + 1; r < 3; r++ {
			if math.Abs(m[r][col]) > math.Abs(m[pivot][col]) {
				pivot = r
			}
		}
		if math.Abs(m[pivot][col]) < 1e-12 {
			return [3]float64{}, fmt.Errorf("montage: singular plane-fit system")
		}
		m[col], m[pivot] = m[pivot], m[col]
		rhs[col], rhs[pivot] = rhs[pivot], rhs[col]
		for r := 0; r < 3; r++ {
			if r == col {
				continue
			}
			f := m[r][col] / m[col][col]
			for cc := col; cc < 3; cc++ {
				m[r][cc] -= f * m[col][cc]
			}
			rhs[r] -= f * rhs[col]
		}
	}
	return [3]float64{rhs[0] / m[0][0], rhs[1] / m[1][1], rhs[2] / m[2][2]}, nil
}

// runDiff differences every overlapping pair of projected images, writing
// the difference image, and then — as Montage's mFitExec does — re-reads
// each difference image from storage to calculate its plane-fitting
// coefficients ("to calculate plane-fitting coefficients for each
// difference image through the second stage", Section V-B-c). The
// read-back is what lets storage faults in the difference images propagate
// into the background model, while the fitting step mitigates most of
// them — the paper's explanation for mDiffExec's low SDC rate.
func (c Config) runDiff(fs vfs.FS, sc *scratch) error {
	if err := fs.MkdirAll(DiffDir); err != nil {
		return err
	}
	// Every tile and area is live at once; diff is reused by both passes.
	imgs, areas := sc.tiles, sc.areas
	for i := 0; i < c.Tiles; i++ {
		if _, err := fits.Read(fs, projPath(i), &imgs[i]); err != nil {
			return err
		}
		if _, err := fits.Read(fs, areaPath(i), &areas[i]); err != nil {
			return err
		}
	}
	diff := &sc.diff
	type pair struct{ i, j int }
	var pairs []pair
	for i := 0; i < c.Tiles; i++ {
		for j := i + 1; j < c.Tiles; j++ {
			x0, y0, x1, y1, ok := overlap(&imgs[i], &imgs[j])
			if !ok {
				continue
			}
			diff.Reset(x1-x0, y1-y0)
			diff.CRVAL1, diff.CRVAL2 = float64(x0), float64(y0)
			valid := 0
			for y := y0; y < y1; y++ {
				for x := x0; x < x1; x++ {
					ix, iy := x-int(imgs[i].CRVAL1), y-int(imgs[i].CRVAL2)
					jx, jy := x-int(imgs[j].CRVAL1), y-int(imgs[j].CRVAL2)
					if areas[i].At(ix, iy) == 0 || areas[j].At(jx, jy) == 0 {
						diff.Set(x-x0, y-y0, math.NaN()) // no coverage
						continue
					}
					diff.Set(x-x0, y-y0, imgs[i].At(ix, iy)-imgs[j].At(jx, jy))
					valid++
				}
			}
			if valid < 16 {
				continue
			}
			if err := fits.Write(fs, diffPath(i, j), diff); err != nil {
				return err
			}
			pairs = append(pairs, pair{i, j})
		}
	}
	// Fitting pass: read every difference image back and fit its plane.
	var table strings.Builder
	table.WriteString("# i j a b c npix\n")
	for _, pr := range pairs {
		if _, err := fits.Read(fs, diffPath(pr.i, pr.j), diff); err != nil {
			return err
		}
		sums := diffSums(diff)
		if sums.n < 16 {
			continue
		}
		p, err := solve3(sums.m, sums.rhs)
		if err != nil {
			return err
		}
		fmt.Fprintf(&table, "%d %d %.8f %.8f %.8f %d\n", pr.i, pr.j, p[0], p[1], p[2], sums.n)
	}
	return vfs.WriteFile(fs, FitsTablePath, []byte(table.String()))
}

// readFitsTable parses the plane-fit table written by runDiff.
type pairFit struct {
	i, j int
	p    [3]float64
	n    int
}

func readFitsTable(fs vfs.FS) ([]pairFit, error) {
	raw, err := vfs.ReadFile(fs, FitsTablePath)
	if err != nil {
		return nil, err
	}
	var out []pairFit
	for _, line := range strings.Split(string(raw), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		var pf pairFit
		if _, err := fmt.Sscanf(line, "%d %d %f %f %f %d",
			&pf.i, &pf.j, &pf.p[0], &pf.p[1], &pf.p[2], &pf.n); err != nil {
			// A corrupted table row: the real mBgModel would reject the
			// table; skip rows it cannot parse, fail if nothing parses.
			continue
		}
		out = append(out, pf)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("montage: fits table has no usable rows")
	}
	return out, nil
}

// runBg solves for per-image plane corrections from the pairwise fits
// (iterative relaxation with image 0 as the gauge anchor) and writes
// background-corrected images.
func (c Config) runBg(fs vfs.FS, sc *scratch) error {
	if err := fs.MkdirAll(CorrDir); err != nil {
		return err
	}
	pairs, err := readFitsTable(fs)
	if err != nil {
		return err
	}
	corr := make([][3]float64, c.Tiles)
	// Relaxation: correction_i − correction_j should approach fit_ij.
	for iter := 0; iter < 200; iter++ {
		for idx := 0; idx < c.Tiles; idx++ {
			if idx == 0 {
				continue // gauge anchor
			}
			var sum [3]float64
			n := 0
			for _, pf := range pairs {
				switch {
				case pf.i == idx:
					for k := 0; k < 3; k++ {
						sum[k] += corr[pf.j][k] + pf.p[k]
					}
					n++
				case pf.j == idx:
					for k := 0; k < 3; k++ {
						sum[k] += corr[pf.i][k] - pf.p[k]
					}
					n++
				}
			}
			if n == 0 {
				continue
			}
			for k := 0; k < 3; k++ {
				corr[idx][k] = 0.5*corr[idx][k] + 0.5*sum[k]/float64(n)
			}
		}
	}
	im, out := &sc.in, &sc.out
	for i := 0; i < c.Tiles; i++ {
		if _, err := fits.Read(fs, projPath(i), im); err != nil {
			return err
		}
		out.Reset(im.Width, im.Height)
		out.CRVAL1, out.CRVAL2 = im.CRVAL1, im.CRVAL2
		for y := 0; y < im.Height; y++ {
			for x := 0; x < im.Width; x++ {
				mx := im.CRVAL1 + float64(x)
				my := im.CRVAL2 + float64(y)
				out.Set(x, y, im.At(x, y)-(corr[i][0]+corr[i][1]*mx+corr[i][2]*my))
			}
		}
		if err := fits.Write(fs, corrPath(i), out); err != nil {
			return err
		}
	}
	return nil
}

// runAdd co-adds the corrected images into the mosaic (area-weighted mean),
// renders the grayscale image, and records the min/max statistics the
// paper's classification keys on.
func (c Config) runAdd(fs vfs.FS, sc *scratch) error {
	if err := fs.MkdirAll(MosaicDir); err != nil {
		return err
	}
	mosaic, weight := &sc.mosaic, &sc.weight
	mosaic.Reset(c.MosaicW, c.MosaicH)
	weight.Reset(c.MosaicW, c.MosaicH)
	im, area := &sc.in, &sc.area
	for i := 0; i < c.Tiles; i++ {
		if _, err := fits.Read(fs, corrPath(i), im); err != nil {
			return err
		}
		if _, err := fits.Read(fs, areaPath(i), area); err != nil {
			return err
		}
		x0, y0 := int(im.CRVAL1), int(im.CRVAL2)
		for y := 0; y < im.Height; y++ {
			for x := 0; x < im.Width; x++ {
				a := 0.0
				if x < area.Width && y < area.Height {
					a = area.At(x, y)
				}
				if a == 0 {
					continue
				}
				mx, my := x0+x, y0+y
				if mx < 0 || my < 0 || mx >= c.MosaicW || my >= c.MosaicH {
					continue
				}
				mosaic.Set(mx, my, mosaic.At(mx, my)+a*im.At(x, y))
				weight.Set(mx, my, weight.At(mx, my)+a)
			}
		}
	}
	for i := range mosaic.Data {
		if weight.Data[i] > 0 {
			mosaic.Data[i] /= weight.Data[i]
		} else {
			mosaic.Data[i] = math.NaN() // blank pixel, like Montage's NaN fill
		}
	}
	if err := fits.Write(fs, MosaicPath, mosaic); err != nil {
		return err
	}

	// Image generation step (the mViewer/shrink stage): re-read the
	// mosaic from storage — the real pipeline hands a file, not memory,
	// to the image generator, so storage faults in the mosaic FITS are
	// visible here — and stretch covered pixels to 8-bit grayscale. The
	// read decodes into the written mosaic's own buffers.
	if _, err := fits.Read(fs, MosaicPath, mosaic); err != nil {
		return err
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range mosaic.Data {
		if math.IsNaN(v) {
			continue
		}
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if !(hi > lo) {
		return fmt.Errorf("montage: mosaic has no covered pixels")
	}
	hdr := fmt.Sprintf("P5\n%d %d\n255\n", c.MosaicW, c.MosaicH)
	pgm := append(sc.pgm[:0], hdr...)
	for _, v := range mosaic.Data {
		if math.IsNaN(v) {
			pgm = append(pgm, 0)
			continue
		}
		g := (v - lo) / (hi - lo)
		pgm = append(pgm, byte(g*255))
	}
	sc.pgm = pgm
	if err := vfs.WriteFile(fs, ImagePath, pgm); err != nil {
		return err
	}
	statsTxt := fmt.Sprintf("min %.5f\nmax %.5f\n", lo, hi)
	return vfs.WriteFile(fs, StatsPath, []byte(statsTxt))
}

// ReadMin extracts the min statistic recorded by the final stage.
func ReadMin(fs vfs.FS) (float64, error) {
	raw, err := vfs.ReadFile(fs, StatsPath)
	if err != nil {
		return 0, err
	}
	var minV, maxV float64
	if _, err := fmt.Sscanf(string(raw), "min %f\nmax %f\n", &minV, &maxV); err != nil {
		return 0, fmt.Errorf("montage: unparseable stats file: %w", err)
	}
	return minV, nil
}
