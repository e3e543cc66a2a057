package montage

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"slices"
	"strconv"

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

// scratch is what one run slot keeps from run to run: each input file as
// last read and decoded, and each kernel output, recomputed only when an
// input it was computed from changed. Outputs never change once stored.
type scratch struct {
	gen                           uint64  // the last generation given out
	raw, proj, area, corr         []image // input files, per tile
	projected, corrected          []image // per tile: projections (areas in projArea), corrected tiles
	projArea                      []fits.Image
	pairs                         []pair // per pair i*Tiles+j
	mosaic                        image
	key                           []uint64     // the generations of the co-add's inputs
	bgCorr                        [][3]float64 // the corrections solved from bgTable
	weight, readBack              fits.Image
	pgm, img, table, buf, bgTable []byte
}

// A memo marks a kept value: from holds the generations of the images and
// the bits of the values it was computed from, gen its own generation. ok
// is set once it is complete: an error or a panic midway leaves nothing.
type memo struct {
	ok   bool
	gen  uint64
	from []uint64
}

// stale reports whether m must be recomputed from inputs from; if so, it
// invalidates and renews m and records from. The caller sets m.ok.
func (sc *scratch) stale(m *memo, from ...uint64) bool {
	if m.ok && slices.Equal(m.from, from) {
		return false
	}
	sc.gen++
	m.ok, m.gen, m.from = false, sc.gen, append(m.from[:0], from...)
	return true
}

// An image is a kept image; for an input file, raw holds the bytes it was
// decoded from.
type image struct {
	memo
	im  fits.Image
	raw []byte
}

// A pair is two overlapping tiles' difference image, its count of covered
// pixels, its read-back, and its plane fit's table row, keyed by the
// generation of the image fitted: the difference in finish, the read-back
// in mDiffExec.
type pair struct {
	memo
	diff  fits.Image
	valid int
	back  image
	fit   memo
	row   []byte
}

func (c Config) newScratch() *scratch {
	n := c.Tiles
	return &scratch{
		raw: make([]image, n), proj: make([]image, n), area: make([]image, n), corr: make([]image, n),
		projected: make([]image, n), corrected: make([]image, n), projArea: make([]fits.Image, n),
		pairs: make([]pair, n*n), key: make([]uint64, 2*n),
	}
}

// read reads the file at path through fs, as fits.Read does, into f; it
// decodes only when the bytes differ from those of f's last decode.
func (sc *scratch) read(fs vfs.FS, path string, f *image) (*fits.Image, error) {
	raw, err := vfs.ReadInto(fs, path, sc.buf)
	if err != nil {
		return nil, err
	}
	if f.ok && bytes.Equal(raw, f.raw) {
		sc.buf = raw
		return &f.im, nil
	}
	f.ok = false // invalidate, renew, then decode
	sc.stale(&f.memo)
	f.raw, sc.buf = raw, f.raw
	if err := f.im.Decode(raw); err != nil {
		return nil, err
	}
	f.ok = true
	return &f.im, nil
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
// image per tile; a tile whose raw file did not change keeps its images.
func (c Config) runProject(fs vfs.FS, sc *scratch) error {
	if err := fs.MkdirAll(ProjDir); err != nil {
		return err
	}
	for i := 0; i < c.Tiles; i++ {
		raw, err := sc.read(fs, rawPath(i), &sc.raw[i])
		if err != nil {
			return err
		}
		p, proj, area := &sc.projected[i], &sc.projected[i].im, &sc.projArea[i]
		if sc.stale(&p.memo, sc.raw[i].gen) {
			x0 := int(math.Ceil(raw.CRVAL1))
			y0 := int(math.Ceil(raw.CRVAL2))
			w := raw.Width - 1 // resampling loses up to one boundary pixel
			h := raw.Height - 1
			proj.Reset(w, h)
			proj.CRVAL1, proj.CRVAL2 = float64(x0), float64(y0)
			area.Reset(w, h)
			area.CRVAL1, area.CRVAL2 = float64(x0), float64(y0)
			for y := 0; y < h; y++ {
				prow, arow := proj.Data[y*w:][:w], area.Data[y*w:][:w]
				ty := float64(y0+y) - raw.CRVAL2
				for x := range prow {
					tx := float64(x0+x) - raw.CRVAL1
					if v, ok := raw.Bilinear(tx, ty); ok {
						prow[x] = v
						arow[x] = 1
					}
				}
			}
			p.ok = true
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
		for x, d := range diff.Data[y*diff.Width:][:diff.Width] {
			if !math.IsNaN(d) {
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

// readTiles reads files[i] from path(i), then sc.area[i], for each tile.
func (c Config) readTiles(fs vfs.FS, sc *scratch, path func(int) string, files []image) error {
	for i := 0; i < c.Tiles; i++ {
		if _, err := sc.read(fs, path(i), &files[i]); err != nil {
			return err
		}
		if _, err := sc.read(fs, areaPath(i), &sc.area[i]); err != nil {
			return err
		}
	}
	return nil
}

// diffPairs differences each overlapping pair of sc.proj tiles, NaN where
// uncovered, again only when one of its four files changed, and calls fit
// with the pair if 16 or more pixels are covered.
func (c Config) diffPairs(sc *scratch, fit func(i, j int, p *pair) error) error {
	for i := 0; i < c.Tiles; i++ {
		for j := i + 1; j < c.Tiles; j++ {
			a, b := &sc.proj[i].im, &sc.proj[j].im
			x0, y0, x1, y1, ok := overlap(a, b)
			if !ok {
				continue
			}
			p := &sc.pairs[i*c.Tiles+j]
			if sc.stale(&p.memo, sc.proj[i].gen, sc.proj[j].gen, sc.area[i].gen, sc.area[j].gen) {
				diff := &p.diff
				diff.Reset(x1-x0, y1-y0)
				diff.CRVAL1, diff.CRVAL2 = float64(x0), float64(y0)
				ix0, iy0 := int(a.CRVAL1), int(a.CRVAL2)
				jx0, jy0 := int(b.CRVAL1), int(b.CRVAL2)
				p.valid = 0
				for y := y0; y < y1; y++ {
					iy, jy := y-iy0, y-jy0
					irow, jrow := a.Data[iy*a.Width:], b.Data[jy*b.Width:]
					icov, jcov := areaRow(&sc.area[i].im, iy), areaRow(&sc.area[j].im, jy)
					drow := diff.Data[(y-y0)*diff.Width:][:diff.Width]
					for x := x0; x < x1; x++ {
						ix, jx := x-ix0, x-jx0
						if !covered(icov, ix) || !covered(jcov, jx) {
							drow[x-x0] = math.NaN()
							continue
						}
						drow[x-x0] = irow[ix] - jrow[jx]
						p.valid++
					}
				}
				p.ok = true
			}
			if p.valid >= 16 {
				if err := fit(i, j, p); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// areaRow returns area's pixels from the start of its row y (row-major at
// its own width) to the end of its data; a corrupted area image may be
// narrower or shorter than its tile.
func areaRow(area *fits.Image, y int) []float64 {
	return area.Data[min(y*area.Width, len(area.Data)):]
}

// covered reports whether pixel x of an areaRow is covered; pixels past
// the end of a corrupted area image are not.
func covered(row []float64, x int) bool { return x < len(row) && row[x] != 0 }

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

// fitRow returns p's table row for im, of generation gen, fitted again only
// for a new gen; with store, as coadd's store.
func (sc *scratch) fitRow(i, j int, p *pair, im *fits.Image, gen uint64, store bool) ([]byte, error) {
	if sc.stale(&p.fit, gen) {
		hd, err := *im, error(nil)
		if store {
			err = hd.StoreHeader()
		}
		if err == nil {
			p.row, err = appendFit(p.row[:0], i, j, &hd)
		}
		if err != nil {
			return nil, err
		}
		p.fit.ok = true
	}
	return p.row, nil
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
	if err := c.readTiles(fs, sc, projPath, sc.proj); err != nil {
		return err
	}
	var pairs []int
	if err := c.diffPairs(sc, func(i, j int, p *pair) error {
		pairs = append(pairs, i*c.Tiles+j)
		return fits.Write(fs, diffPath(i, j), &p.diff)
	}); err != nil {
		return err
	}
	// Fitting pass: read every difference image back and fit its plane.
	table := append(sc.table[:0], fitsTableHeader...)
	for _, k := range pairs {
		p, i, j := &sc.pairs[k], k/c.Tiles, k%c.Tiles
		im, err := sc.read(fs, diffPath(i, j), &p.back)
		if err != nil {
			return err
		}
		row, err := sc.fitRow(i, j, p, im, p.back.gen, false)
		if err != nil {
			return err
		}
		table = append(table, row...)
	}
	sc.table = table
	return vfs.WriteFile(fs, FitsTablePath, table)
}

// pairFit is one plane-fit table row: the plane p fitted to the n covered
// pixels of pair (i, j).
type pairFit struct {
	i, j, n int
	p       [3]float64
}

// parseTable returns the table rows that parse, in order, skipping blank
// lines and '#' comments. A corrupted row is skipped too: the real
// mBgModel would reject the table; parseTable fails only if no row parses.
func parseTable(table []byte) ([]pairFit, error) {
	var pairs []pairFit
	for line := range bytes.SplitSeq(table, []byte("\n")) {
		line = bytes.TrimSpace(line)
		if len(line) == 0 || line[0] == '#' {
			continue
		}
		if pf, ok := parseRow(line); ok {
			pairs = append(pairs, pf)
		}
	}
	if len(pairs) == 0 {
		return nil, fmt.Errorf("montage: fits table has no usable rows")
	}
	return pairs, nil
}

// parseRow parses a row as fmt.Sscanf(row, "%d %d %f %f %f %d", ...) does.
// Six tokens of digits, '-' and '.' apart by single spaces (as appendFit
// writes) take the strconv calls fmt makes on them; Sscanf reads the rest.
func parseRow(row []byte) (pf pairFit, ok bool) {
	var tok [6][]byte
	rest, plain := row, true
	for k := range tok {
		tok[k], rest, _ = bytes.Cut(rest, []byte(" "))
		plain = plain && len(bytes.Trim(tok[k], "-.0123456789")) == 0
	}
	if plain && len(rest) == 0 {
		var err [6]error
		pf.i, err[0] = strconv.Atoi(string(tok[0]))
		pf.j, err[1] = strconv.Atoi(string(tok[1]))
		for c := range pf.p {
			pf.p[c], err[2+c] = strconv.ParseFloat(string(tok[2+c]), 64)
		}
		pf.n, err[5] = strconv.Atoi(string(tok[5]))
		if errors.Join(err[:]...) == nil {
			return pf, true
		}
	}
	_, err := fmt.Sscanf(string(row), "%d %d %f %f %f %d", &pf.i, &pf.j, &pf.p[0], &pf.p[1], &pf.p[2], &pf.n)
	return pf, err == nil
}

// background parses the plane-fit table and solves for per-image plane
// corrections by iterative relaxation, image 0 the gauge anchor. It
// solves again only when the table's bytes differ from the last solve's.
func (c Config) background(sc *scratch, table []byte) ([][3]float64, error) {
	if sc.bgCorr != nil && bytes.Equal(sc.bgTable, table) {
		return sc.bgCorr, nil
	}
	sc.bgCorr = nil
	pairs, err := parseTable(table)
	if err != nil {
		return nil, err
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
	sc.bgTable, sc.bgCorr = append(sc.bgTable[:0], table...), corr
	return corr, nil
}

// correct returns projection i less its background plane, computed again
// only when the projection or the plane changed.
func (sc *scratch) correct(i int, plane [3]float64) *fits.Image {
	src, out := &sc.proj[i].im, &sc.corrected[i]
	if sc.stale(&out.memo, sc.proj[i].gen, math.Float64bits(plane[0]), math.Float64bits(plane[1]), math.Float64bits(plane[2])) {
		out.im.Reset(src.Width, src.Height)
		out.im.CRVAL1, out.im.CRVAL2 = src.CRVAL1, src.CRVAL2
		for y := 0; y < src.Height; y++ {
			row, dst := src.Data[y*src.Width:][:src.Width], out.im.Data[y*src.Width:][:src.Width]
			my := src.CRVAL2 + float64(y)
			for x := range row {
				mx := src.CRVAL1 + float64(x)
				dst[x] = row[x] - (plane[0] + plane[1]*mx + plane[2]*my)
			}
		}
		out.ok = true
	}
	return &out.im
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
	corr, err := c.background(sc, table)
	if err != nil {
		return err
	}
	for i := 0; i < c.Tiles; i++ {
		if _, err := sc.read(fs, projPath(i), &sc.proj[i]); err != nil {
			return err
		}
		if err := fits.Write(fs, corrPath(i), sc.correct(i, corr[i])); err != nil {
			return err
		}
	}
	return nil
}

// coadd co-adds tiles, weighted by sc.area, into the area-weighted mean
// mosaic, again only when an input changed. With store, each tile is added
// with the header a write and read-back would give it.
func (c Config) coadd(sc *scratch, tiles []image, store bool) (*fits.Image, error) {
	for i := range tiles {
		sc.key[i], sc.key[c.Tiles+i] = tiles[i].gen, sc.area[i].gen
	}
	m := &sc.mosaic
	if !sc.stale(&m.memo, sc.key...) {
		return &m.im, nil
	}
	mosaic, weight := &m.im, &sc.weight
	mosaic.Reset(c.MosaicW, c.MosaicH)
	weight.Reset(c.MosaicW, c.MosaicH)
	for i := range tiles {
		im := tiles[i].im
		if store {
			if err := im.StoreHeader(); err != nil {
				return nil, err
			}
		}
		c.addTile(mosaic, weight, &im, &sc.area[i].im)
	}
	weights := weight.Data[:len(mosaic.Data)]
	for i, w := range weights {
		if w > 0 {
			mosaic.Data[i] /= w
		} else {
			mosaic.Data[i] = math.NaN() // blank pixel, like Montage's NaN fill
		}
	}
	m.ok = true
	return mosaic, nil
}

// addTile adds im, weighted by its area image, into mosaic and weight.
// Pixels outside the area image have weight 0, as do those that fall off
// the mosaic.
func (c Config) addTile(mosaic, weight, im, area *fits.Image) {
	x0, y0 := int(im.CRVAL1), int(im.CRVAL2)
	w := min(im.Width, area.Width)
	for y := 0; y < min(im.Height, area.Height); y++ {
		my := y0 + y
		if my < 0 || my >= c.MosaicH {
			continue
		}
		src, weights := im.Data[y*im.Width:][:w], area.Data[y*area.Width:][:w]
		mrow := mosaic.Data[my*c.MosaicW:][:c.MosaicW]
		wrow := weight.Data[my*c.MosaicW:][:c.MosaicW]
		for x, a := range weights {
			if a == 0 {
				continue
			}
			mx := x0 + x
			if mx < 0 || mx >= c.MosaicW {
				continue
			}
			mrow[mx] += a * src[x]
			wrow[mx] += a
		}
	}
}

// render stretches mosaic to the 8-bit PGM in sc.pgm and formats the
// min/max statistics the paper's classification keys on.
func (c Config) render(sc *scratch, mosaic *fits.Image) (string, error) {
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
		return "", fmt.Errorf("montage: mosaic has no covered pixels")
	}
	pgm := fmt.Appendf(sc.pgm[:0], "P5\n%d %d\n255\n", c.MosaicW, c.MosaicH)
	head := len(pgm)
	pgm = slices.Grow(pgm, len(mosaic.Data))[:head+len(mosaic.Data)]
	gray := pgm[head:]
	for i, v := range mosaic.Data {
		if math.IsNaN(v) {
			gray[i] = 0
			continue
		}
		g := (v - lo) / (hi - lo)
		gray[i] = byte(g * 255)
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
	if err := c.readTiles(fs, sc, corrPath, sc.corr); err != nil {
		return err
	}
	mosaic, err := c.coadd(sc, sc.corr, false)
	if err != nil {
		return err
	}
	if err := fits.Write(fs, MosaicPath, mosaic); err != nil {
		return err
	}
	// Image generation (mViewer): the real pipeline hands the mosaic file,
	// not memory, to the image generator, so its faults are visible here.
	if mosaic, err = fits.Read(fs, MosaicPath, &sc.readBack); err != nil {
		return err
	}
	stats, err := c.render(sc, mosaic)
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
	tiles := sc.corr
	if from == StageAdd {
		if err := c.readTiles(fs, sc, corrPath, sc.corr); err != nil {
			return nil, "", err
		}
	} else {
		if err := c.readTiles(fs, sc, projPath, sc.proj); err != nil {
			return nil, "", err
		}
		table, err := append(sc.table[:0], fitsTableHeader...), error(nil)
		if from == StageDiff {
			err = c.diffPairs(sc, func(i, j int, p *pair) error {
				row, err := sc.fitRow(i, j, p, &p.diff, p.gen, true)
				table = append(table, row...)
				return err
			})
		} else {
			table, err = vfs.ReadInto(fs, FitsTablePath, sc.table)
		}
		var corr [][3]float64
		if err == nil {
			sc.table = table
			corr, err = c.background(sc, table)
		}
		if err != nil {
			return nil, "", err
		}
		for i := range corr {
			sc.correct(i, corr[i])
		}
		tiles = sc.corrected
	}
	m, err := c.coadd(sc, tiles, from < StageAdd)
	if err != nil {
		return nil, "", err
	}
	mosaic := *m
	if err := mosaic.StoreHeader(); err != nil {
		return nil, "", err
	}
	stats, err := c.render(sc, &mosaic)
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
