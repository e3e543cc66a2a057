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
	if s < StageProject || s > StageAdd {
		return fmt.Sprintf("stage(%d)", int(s))
	}
	return [...]string{"mProjExec", "mDiffExec", "mBgExec", "mAdd"}[s-1]
}

// Stages lists the instrumented stages in execution order.
func Stages() []Stage { return []Stage{StageProject, StageDiff, StageBg, StageAdd} }

// scratch holds the images and buffers of one run slot, one per role.
// Every stage overwrites what it uses before reading it — fits.Read
// decodes whole images, Reset zeroes them, the PGM is rebuilt from empty —
// so a scratch carries nothing from one run into the next, even from a
// run that failed midway.
type scratch struct {
	tiles, areas                        []fits.Image // runDiff and finish before mAdd keep every tile live
	in, out, area, diff, mosaic, weight fits.Image
	pgm, img, table                     []byte
}

func (c Config) newScratch() *scratch {
	return &scratch{tiles: make([]fits.Image, c.Tiles), areas: make([]fits.Image, c.Tiles)}
}

// runStage executes one pipeline stage, reading its inputs from and
// writing its outputs to fs, with sc's images.
func (c Config) runStage(fs vfs.FS, s Stage, sc *scratch) error {
	if s < StageProject || s > StageAdd {
		return fmt.Errorf("montage: unknown stage %d", int(s))
	}
	run := [...]func(Config, vfs.FS, *scratch) error{Config.runProject, Config.runDiff, Config.runBg, Config.runAdd}
	return run[s-1](c, fs, sc)
}

// RunPipeline executes stages [from, to] inclusive.
func (c Config) RunPipeline(fs vfs.FS, from, to Stage) error {
	sc := c.newScratch()
	for s := max(from, StageProject); s <= min(to, StageAdd); s++ {
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
// are mosaic coordinates. add sums the six distinct entries of the
// symmetric m and mirrors them, bit-identical to summing all nine.
type planeSums struct {
	m   [3][3]float64
	rhs [3]float64
	n   int
}

func (s *planeSums) add(x, y, d float64) {
	s.m[0][0]++
	s.m[0][1] += x
	s.m[0][2] += y
	s.m[1][1] += x * x
	s.m[1][2] += x * y
	s.m[2][2] += y * y
	s.m[1][0], s.m[2][0], s.m[2][1] = s.m[0][1], s.m[0][2], s.m[1][2]
	s.rhs[0] += d
	s.rhs[1] += x * d
	s.rhs[2] += y * d
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

// readTiles decodes the projection and the area file of each tile, in
// that order, into sc.tiles and sc.areas.
func (c Config) readTiles(fs vfs.FS, sc *scratch) error {
	for i := 0; i < c.Tiles; i++ {
		if _, err := fits.Read(fs, projPath(i), &sc.tiles[i]); err != nil {
			return err
		}
		if _, err := fits.Read(fs, areaPath(i), &sc.areas[i]); err != nil {
			return err
		}
	}
	return nil
}

// diffPairs differences each overlapping pair of sc's tiles into sc.diff,
// NaN where uncovered, and calls fit if 16 or more pixels are covered.
func (c Config) diffPairs(sc *scratch, fit func(i, j int) error) error {
	imgs, areas, diff := sc.tiles, sc.areas, &sc.diff
	for i := 0; i < c.Tiles; i++ {
		for j := i + 1; j < c.Tiles; j++ {
			x0, y0, x1, y1, ok := overlap(&imgs[i], &imgs[j])
			if !ok {
				continue
			}
			diff.Reset(x1-x0, y1-y0)
			diff.CRVAL1, diff.CRVAL2 = float64(x0), float64(y0)
			ix0, iy0 := int(imgs[i].CRVAL1), int(imgs[i].CRVAL2)
			jx0, jy0 := int(imgs[j].CRVAL1), int(imgs[j].CRVAL2)
			valid := 0
			for y := y0; y < y1; y++ {
				for x := x0; x < x1; x++ {
					ix, iy, jx, jy := x-ix0, y-iy0, x-jx0, y-jy0
					if !covered(&areas[i], ix, iy) || !covered(&areas[j], jx, jy) {
						diff.Set(x-x0, y-y0, math.NaN())
						continue
					}
					diff.Set(x-x0, y-y0, imgs[i].At(ix, iy)-imgs[j].At(jx, jy))
					valid++
				}
			}
			if valid >= 16 {
				if err := fit(i, j); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// covered reports whether an area image covers pixel (x, y) of its tile,
// indexing as At does; pixels past the end of a corrupted one are not.
func covered(area *fits.Image, x, y int) bool {
	k := y*area.Width + x
	return k < len(area.Data) && area.Data[k] != 0
}

// appendFit fits the plane of pair (i, j)'s difference image and appends
// its table row; an image with fewer than 16 covered pixels adds none.
func appendFit(table []byte, i, j int, diff *fits.Image) ([]byte, error) {
	sums := diffSums(diff)
	if sums.n < 16 {
		return table, nil
	}
	p, err := solve3(sums.m, sums.rhs)
	if err != nil {
		return table, err
	}
	return fmt.Appendf(table, "%d %d %.8f %.8f %.8f %d\n", i, j, p[0], p[1], p[2], sums.n), nil
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
	if err := c.readTiles(fs, sc); err != nil {
		return err
	}
	var pairs [][2]int
	if err := c.diffPairs(sc, func(i, j int) error {
		pairs = append(pairs, [2]int{i, j})
		return fits.Write(fs, diffPath(i, j), &sc.diff)
	}); err != nil {
		return err
	}
	// Fitting pass: read every difference image back and fit its plane.
	table := append(sc.table[:0], fitsTableHeader...)
	for _, pr := range pairs {
		if _, err := fits.Read(fs, diffPath(pr[0], pr[1]), &sc.diff); err != nil {
			return err
		}
		var err error
		if table, err = appendFit(table, pr[0], pr[1], &sc.diff); err != nil {
			return err
		}
	}
	sc.table = table
	return vfs.WriteFile(fs, FitsTablePath, table)
}

// background parses the plane-fit table and solves for per-image plane
// corrections by iterative relaxation, image 0 the gauge anchor.
func (c Config) background(table []byte) ([][3]float64, error) {
	type pairFit struct {
		i, j, n int
		p       [3]float64
	}
	var pairs []pairFit
	for _, line := range strings.Split(string(table), "\n") {
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
		pairs = append(pairs, pf)
	}
	if len(pairs) == 0 {
		return nil, fmt.Errorf("montage: fits table has no usable rows")
	}
	// The rows naming each tile, in table order, when both their tiles exist.
	rows := make([][]pairFit, c.Tiles)
	for _, pf := range pairs {
		if pf.i < 0 || pf.i >= c.Tiles || pf.j < 0 || pf.j >= c.Tiles {
			continue
		}
		rows[pf.i] = append(rows[pf.i], pf)
		if pf.j != pf.i {
			rows[pf.j] = append(rows[pf.j], pf)
		}
	}
	corr := make([][3]float64, c.Tiles)
	// Relaxation: correction_i − correction_j should approach fit_ij.
	for iter := 0; iter < 200; iter++ {
		for idx := 1; idx < c.Tiles; idx++ {
			var sum [3]float64
			n := 0
			for _, pf := range rows[idx] {
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
	return corr, nil
}

// correct subtracts its background plane from im.
func correct(im *fits.Image, plane [3]float64) {
	for y := 0; y < im.Height; y++ {
		for x := 0; x < im.Width; x++ {
			mx := im.CRVAL1 + float64(x)
			my := im.CRVAL2 + float64(y)
			im.Set(x, y, im.At(x, y)-(plane[0]+plane[1]*mx+plane[2]*my))
		}
	}
}

// runBg solves for per-image plane corrections from the pairwise fits and
// writes background-corrected images.
func (c Config) runBg(fs vfs.FS, sc *scratch) error {
	if err := fs.MkdirAll(CorrDir); err != nil {
		return err
	}
	table, err := vfs.ReadInto(fs, FitsTablePath, sc.table)
	if err != nil {
		return err
	}
	sc.table = table
	corr, err := c.background(table)
	if err != nil {
		return err
	}
	for i := 0; i < c.Tiles; i++ {
		if _, err := fits.Read(fs, projPath(i), &sc.in); err != nil {
			return err
		}
		correct(&sc.in, corr[i])
		if err := fits.Write(fs, corrPath(i), &sc.in); err != nil {
			return err
		}
	}
	return nil
}

// coadd co-adds the tiles that tile(i) supplies, in tile order, into
// sc.mosaic, the area-weighted mean; it stops at tile's first error.
func (c Config) coadd(sc *scratch, tile func(i int) (im, area *fits.Image, err error)) error {
	mosaic, weight := &sc.mosaic, &sc.weight
	mosaic.Reset(c.MosaicW, c.MosaicH)
	weight.Reset(c.MosaicW, c.MosaicH)
	for i := 0; i < c.Tiles; i++ {
		im, area, err := tile(i)
		if err != nil {
			return err
		}
		c.addTile(sc, im, area)
	}
	for i := range mosaic.Data {
		if weight.Data[i] > 0 {
			mosaic.Data[i] /= weight.Data[i]
		} else {
			mosaic.Data[i] = math.NaN() // blank pixel, like Montage's NaN fill
		}
	}
	return nil
}

// addTile adds im, weighted by its area image, into sc.mosaic and
// sc.weight.
func (c Config) addTile(sc *scratch, im, area *fits.Image) {
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
			sc.mosaic.Set(mx, my, sc.mosaic.At(mx, my)+a*im.At(x, y))
			sc.weight.Set(mx, my, sc.weight.At(mx, my)+a)
		}
	}
}

// readCorr returns a coadd source that decodes corrected tile i and then
// its area file into sc.in and sc.area, one tile at a time.
func readCorr(fs vfs.FS, sc *scratch) func(int) (*fits.Image, *fits.Image, error) {
	return func(i int) (*fits.Image, *fits.Image, error) {
		if _, err := fits.Read(fs, corrPath(i), &sc.in); err != nil {
			return nil, nil, err
		}
		_, err := fits.Read(fs, areaPath(i), &sc.area)
		return &sc.in, &sc.area, err
	}
}

// render stretches sc.mosaic to the 8-bit PGM in sc.pgm and formats the
// min/max statistics the paper's classification keys on.
func (c Config) render(sc *scratch) (string, error) {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range sc.mosaic.Data {
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
		return "", fmt.Errorf("montage: mosaic has no covered pixels")
	}
	pgm := fmt.Appendf(sc.pgm[:0], "P5\n%d %d\n255\n", c.MosaicW, c.MosaicH)
	for _, v := range sc.mosaic.Data {
		if math.IsNaN(v) {
			pgm = append(pgm, 0)
			continue
		}
		g := (v - lo) / (hi - lo)
		pgm = append(pgm, byte(g*255))
	}
	sc.pgm = pgm
	return fmt.Sprintf("min %.5f\nmax %.5f\n", lo, hi), nil
}

// runAdd co-adds the corrected images into the mosaic, renders the
// grayscale image, and records the min/max statistics.
func (c Config) runAdd(fs vfs.FS, sc *scratch) error {
	if err := fs.MkdirAll(MosaicDir); err != nil {
		return err
	}
	if err := c.coadd(sc, readCorr(fs, sc)); err != nil {
		return err
	}
	if err := fits.Write(fs, MosaicPath, &sc.mosaic); err != nil {
		return err
	}
	// Image generation (mViewer): the real pipeline hands the mosaic file,
	// not memory, to the image generator, so its faults are visible here.
	if _, err := fits.Read(fs, MosaicPath, &sc.mosaic); err != nil {
		return err
	}
	stats, err := c.render(sc)
	if err != nil {
		return err
	}
	if err := vfs.WriteFile(fs, ImagePath, sc.pgm); err != nil {
		return err
	}
	return vfs.WriteFile(fs, StatsPath, []byte(stats))
}

// finish chains the kernels of the stages from `from` through mAdd on the
// inputs a run left in fs and returns the image and statistics text runAdd
// would write; all else stays in sc. Where storage would change a value,
// finish does too: each image the file stages write and read back takes
// StoreHeader (pixels survive bit for bit); the table is parsed as text.
func (c Config) finish(fs vfs.FS, from Stage, sc *scratch) ([]byte, string, error) {
	tiles := readCorr(fs, sc)
	if from < StageAdd {
		if err := c.readTiles(fs, sc); err != nil {
			return nil, "", err
		}
		table, err := append(sc.table[:0], fitsTableHeader...), error(nil)
		if from == StageDiff {
			err = c.diffPairs(sc, func(i, j int) (err error) {
				if err = sc.diff.StoreHeader(); err == nil {
					table, err = appendFit(table, i, j, &sc.diff)
				}
				return err
			})
		} else {
			table, err = vfs.ReadInto(fs, FitsTablePath, sc.table)
		}
		var corr [][3]float64
		if err == nil {
			sc.table = table
			corr, err = c.background(table)
		}
		if err != nil {
			return nil, "", err
		}
		tiles = func(i int) (*fits.Image, *fits.Image, error) {
			correct(&sc.tiles[i], corr[i])
			return &sc.tiles[i], &sc.areas[i], sc.tiles[i].StoreHeader()
		}
	}
	if err := c.coadd(sc, tiles); err != nil {
		return nil, "", err
	}
	if err := sc.mosaic.StoreHeader(); err != nil {
		return nil, "", err
	}
	stats, err := c.render(sc)
	return sc.pgm, stats, err
}

// ReadMin extracts the min statistic recorded by the final stage.
func ReadMin(fs vfs.FS) (float64, error) {
	raw, err := vfs.ReadFile(fs, StatsPath)
	if err != nil {
		return 0, err
	}
	return parseMin(string(raw))
}

func parseMin(stats string) (float64, error) {
	var minV, maxV float64
	if _, err := fmt.Sscanf(stats, "min %f\nmax %f\n", &minV, &maxV); err != nil {
		return 0, fmt.Errorf("montage: unparseable stats file: %w", err)
	}
	return minV, nil
}
