package nyx

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math"
	"sort"
	"sync"
	"testing"

	"ffis/internal/classify"
	"ffis/internal/core"
	"ffis/internal/stats"
	"ffis/internal/vfs"
)

// refFindHalos is FindHalos as it stood while candidates lived in a map
// and components were gathered in map order before the sort. The dense
// Friends-of-Friends must reproduce it bit for bit.
func refFindHalos(field []float64, n int, cfg HaloConfig) Catalog {
	mean := stats.Mean(field)
	cat := Catalog{GridN: n, Mean: mean, Integral: mean * float64(len(field))}
	threshold := cfg.ThresholdFactor * mean
	if math.IsNaN(threshold) || math.IsInf(threshold, 0) {
		return cat
	}
	candidate := make(map[int]int, 1024)
	var cells []int
	for i, v := range field {
		if v >= threshold {
			candidate[i] = len(cells)
			cells = append(cells, i)
		}
	}
	cat.Candidates = len(cells)
	if len(cells) == 0 {
		return cat
	}
	parent := make([]int, len(cells))
	for i := range parent {
		parent[i] = i
	}
	find := func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[ra] = rb
		}
	}
	for id, idx := range cells {
		x, y, z := idx%n, (idx/n)%n, idx/(n*n)
		for _, nb := range []struct {
			ok  bool
			off int
		}{{x+1 < n, 1}, {y+1 < n, n}, {z+1 < n, n * n}} {
			if nid, found := candidate[idx+nb.off]; nb.ok && found {
				union(id, nid)
			}
		}
	}
	type accum struct {
		mass, cx, cy, cz float64
		cells            int
	}
	groups := map[int]*accum{}
	for id, idx := range cells {
		root := find(id)
		g := groups[root]
		if g == nil {
			g = &accum{}
			groups[root] = g
		}
		v := field[idx]
		x, y, z := float64(idx%n), float64((idx/n)%n), float64(idx/(n*n))
		g.mass += v
		g.cells++
		g.cx += v * x
		g.cy += v * y
		g.cz += v * z
	}
	for _, g := range groups {
		if g.cells < cfg.MinCells || g.mass <= 0 {
			continue
		}
		cat.Halos = append(cat.Halos, Halo{Mass: g.mass, Cells: g.cells, Center: [3]float64{g.cx / g.mass, g.cy / g.mass, g.cz / g.mass}})
	}
	sort.Slice(cat.Halos, func(i, j int) bool {
		if cat.Halos[i].Mass != cat.Halos[j].Mass {
			return cat.Halos[i].Mass > cat.Halos[j].Mass
		}
		return cat.Halos[i].Center[0] < cat.Halos[j].Center[0]
	})
	return cat
}

// TestFindHalosMatchesMapReference checks the dense Friends-of-Friends
// against the map-based one bit for bit on generated fields, at the
// paper's threshold and at lower ones that merge many candidates into
// large components.
func TestFindHalosMatchesMapReference(t *testing.T) {
	for _, n := range []int{16, 32} {
		for seed := uint64(1); seed <= 4; seed++ {
			sim := DefaultSim()
			sim.N, sim.NumHalos, sim.Seed = n, n*n*n/4096+2, seed
			field := sim.Generate()
			for _, factor := range []float64{81.66, 20, 3} {
				cfg := HaloConfig{ThresholdFactor: factor, MinCells: 10}
				got, want := FindHalos(field, n, cfg), refFindHalos(field, n, cfg)
				if d := sameCatalog(got, want); d != "" {
					t.Fatalf("n %d seed %d factor %g: %s", n, seed, factor, d)
				}
			}
		}
	}
}

// refOutcome applies the Nyx outcome rules to the catalog RunHaloFinder
// finds on a fresh world: the classification as it stood while every
// analysis decoded and summed the whole dataset.
func refOutcome(app *App, cat Catalog, err error, avg bool) classify.Outcome {
	switch {
	case err != nil:
		return classify.Crash
	case cat.Render() == app.Golden():
		return classify.Benign
	case len(cat.Halos) == 0:
		return classify.Detected
	case avg && DetectByAverage(cat.Mean):
		return classify.Detected
	}
	return classify.SDC
}

// sameCatalog reports how got differs from want, with floats compared by
// their bits, or "" when they are identical.
func sameCatalog(got, want Catalog) string {
	bits := math.Float64bits
	switch {
	case got.GridN != want.GridN || got.Candidates != want.Candidates || len(got.Halos) != len(want.Halos):
		return fmt.Sprintf("grid/candidates/halos %d/%d/%d, want %d/%d/%d",
			got.GridN, got.Candidates, len(got.Halos), want.GridN, want.Candidates, len(want.Halos))
	case bits(got.Mean) != bits(want.Mean) || bits(got.Integral) != bits(want.Integral):
		return fmt.Sprintf("mean/integral %v/%v, want %v/%v", got.Mean, got.Integral, want.Mean, want.Integral)
	}
	for i, h := range got.Halos {
		w := want.Halos[i]
		if h.Cells != w.Cells || bits(h.Mass) != bits(w.Mass) ||
			bits(h.Center[0]) != bits(w.Center[0]) || bits(h.Center[1]) != bits(w.Center[1]) || bits(h.Center[2]) != bits(w.Center[2]) {
			return fmt.Sprintf("halo %d %+v, want %+v", i, h, w)
		}
	}
	return ""
}

// checkAnalyze fails t when App.Analyze in sc, or the classification in
// sc, differs on the plotfile raw from RunHaloFinder on a fresh world and
// the reference rules: same error text, same catalog bit for bit, same
// rendering, same outcome with and without the average-value detector.
// RunHaloFinder's catalog must in turn equal refFindHalos on the cells
// ReadDataset decodes.
func checkAnalyze(t *testing.T, app *App, sc *Scratch, name string, raw []byte) {
	t.Helper()
	fs := vfs.NewMemFS()
	if err := fs.MkdirAll("/plt00000"); err != nil {
		t.Fatal(err)
	}
	if err := vfs.WriteFile(fs, OutputPath, raw); err != nil {
		t.Fatal(err)
	}
	want, wantErr := RunHaloFinder(fs, OutputPath, app.Halo)
	got, text, gotErr := app.Analyze(fs, sc)
	errText := func(err error) string {
		if err == nil {
			return "<nil>"
		}
		return err.Error()
	}
	if errText(gotErr) != errText(wantErr) {
		t.Fatalf("%s: error %q, want %q", name, errText(gotErr), errText(wantErr))
	}
	if wantErr == nil {
		field, n, err := ReadDataset(fs, OutputPath)
		if err != nil {
			t.Fatal(err)
		}
		if d := sameCatalog(want, refFindHalos(field, n, app.Halo)); d != "" {
			t.Fatalf("%s: RunHaloFinder catalog %s against the map-based reference", name, d)
		}
		if d := sameCatalog(got, want); d != "" {
			t.Fatalf("%s: catalog %s", name, d)
		}
		if text != want.Render() {
			t.Fatalf("%s: rendering\n%s\nwant\n%s", name, text, want.Render())
		}
	}
	for _, avg := range []bool{false, true} {
		app.UseAvgDetector = avg
		got, want := app.classify(fs, nil, sc), refOutcome(app, want, wantErr, avg)
		app.UseAvgDetector = false
		if got != want {
			t.Fatalf("%s (avg detector %v): outcome %s, want %s", name, avg, got, want)
		}
	}
}

// goldenBytes returns the file a fault-free run writes.
func goldenBytes(t testing.TB, app *App) []byte {
	t.Helper()
	fs := vfs.NewMemFS()
	if err := app.Run(fs); err != nil {
		t.Fatal(err)
	}
	raw, err := vfs.ReadFile(fs, OutputPath)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestAnalyzeMatchesHaloFinder checks App.Analyze, with one Scratch for
// every case, against the halo finder on a fresh world on the golden
// plotfile and on the damage storage faults leave in it: bit flips in
// metadata and data (exponent bits included, which make NaN and Inf
// cells), the Table IV field corruptions, zeroed and shorn 4 KiB blocks,
// random runs, truncations and extensions.
func TestAnalyzeMatchesHaloFinder(t *testing.T) {
	app, err := NewApp(smallSim(), DefaultHalo())
	if err != nil {
		t.Fatal(err)
	}
	img, err := app.Image()
	if err != nil {
		t.Fatal(err)
	}
	golden := goldenBytes(t, app)
	meta := len(img.Meta)
	sc := new(Scratch)
	mutate := func(name string, f func(b []byte) []byte) {
		checkAnalyze(t, app, sc, name, f(bytes.Clone(golden)))
	}
	mutate("golden", func(b []byte) []byte { return b })
	rng := stats.NewRNG(35)
	for i := 0; i < 300; i++ {
		off, bit := rng.Intn(meta), rng.Intn(8)
		mutate(fmt.Sprintf("meta flip %d.%d", off, bit), func(b []byte) []byte { b[off] ^= 1 << bit; return b })
	}
	for i := 0; i < 300; i++ {
		off, bit := meta+rng.Intn(len(golden)-meta), rng.Intn(8)
		mutate(fmt.Sprintf("data flip %d.%d", off, bit), func(b []byte) []byte { b[off] ^= 1 << bit; return b })
	}
	for _, cell := range []int{0, 255, 256, 257, len(img.Data)/16 - 1, len(img.Data) / 8 / 2, len(img.Data)/8 - 1} {
		for _, bit := range []int{0, 51, 52, 62, 63} {
			off := meta + 8*cell + bit/8
			mutate(fmt.Sprintf("cell %d bit %d", cell, bit), func(b []byte) []byte { b[off] ^= 1 << (bit % 8); return b })
		}
	}
	for _, fc := range []struct {
		locator string
		bit     int
	}{
		{"mantissaNormalization", 5}, {"exponentLocation", 1}, {"float.mantissaLocation", 2},
		{"float.mantissaSize", 3}, {"exponentBias", 2}, {"addressOfRawData", 3}, {"addressOfRawData", 4},
		{"datatype.size", 0}, {"contiguousStorage.size", 7}, {"dataspace.dim[", 0}, {"datatype.float.bitPrecision", 1},
	} {
		for _, r := range img.Fields.Find(fc.locator) {
			mutate(fmt.Sprintf("%s bit %d", r.Name, fc.bit), func(b []byte) []byte { b[r.Offset] ^= 1 << fc.bit; return b })
		}
	}
	for off := meta; off < len(golden); off += 4096 * 5 {
		mutate(fmt.Sprintf("zeroed block %d", off), func(b []byte) []byte {
			clear(b[off:min(off+4096, len(b))])
			return b
		})
		mutate(fmt.Sprintf("shorn block %d", off), func(b []byte) []byte {
			clear(b[off+2048 : min(off+4096, len(b))])
			return b
		})
	}
	for i := 0; i < 40; i++ {
		off, n := rng.Intn(len(golden)), 1+rng.Intn(64)
		mutate(fmt.Sprintf("random run %d+%d", off, n), func(b []byte) []byte {
			for j := off; j < min(off+n, len(b)); j++ {
				b[j] = byte(rng.Intn(256))
			}
			return b
		})
	}
	for _, n := range []int{0, 1, meta - 1, meta, meta + 8, len(golden) - 8, len(golden) - 1} {
		mutate(fmt.Sprintf("truncated to %d", n), func(b []byte) []byte { return b[:n] })
	}
	mutate("extended", func(b []byte) []byte { return append(b, make([]byte, 4096)...) })
	mutate("golden again", func(b []byte) []byte { return b })
}

// FuzzNyxClassify checks App.Analyze and the classification, with one
// Scratch reused across inputs, against the halo finder on a fresh world
// and the reference rules, on the golden plotfile with bytes flipped
// (xor), overwritten or cut off at an offset in metadata or data.
func FuzzNyxClassify(f *testing.F) {
	app, err := NewApp(smallSim(), DefaultHalo())
	if err != nil {
		f.Fatal(err)
	}
	golden := goldenBytes(f, app)
	img, err := app.Image()
	if err != nil {
		f.Fatal(err)
	}
	meta := uint32(len(img.Meta))
	for _, r := range img.Fields.Ranges() {
		f.Add(uint8(0), uint32(r.Offset), []byte{0x10})
	}
	for _, off := range []uint32{meta, meta + 2048, meta + 8*256, uint32(len(golden)) / 2, uint32(len(golden)) - 8} {
		f.Add(uint8(0), off, []byte{0x01})
		f.Add(uint8(0), off+7, []byte{0x40})
		f.Add(uint8(1), off, make([]byte, 4096))
		f.Add(uint8(2), off, []byte(nil))
	}
	var mu sync.Mutex
	sc := new(Scratch)
	f.Fuzz(func(t *testing.T, op uint8, off uint32, data []byte) {
		raw := bytes.Clone(golden)
		at := int(off % uint32(len(raw)+1))
		switch op % 3 {
		case 0:
			for i, x := range data {
				if at+i < len(raw) {
					raw[at+i] ^= x
				}
			}
		case 1:
			raw = append(raw[:at], append(data, raw[min(at+len(data), len(raw)):]...)...)
		case 2:
			raw = raw[:at]
		}
		mu.Lock()
		defer mu.Unlock()
		checkAnalyze(t, app, sc, "fuzzed plotfile", raw)
	})
}

// TestCampaignsKeepImageIntact runs a campaign under every registered
// model, on flat, object, latency-modeled and mounted worlds, whose runs
// write the App's kept image and read it back through the armed file
// system, and checks that the kept image still hashes as before: no hook
// or backend may keep, and later modify, a buffer it was handed.
func TestCampaignsKeepImageIntact(t *testing.T) {
	app, err := NewApp(smallSim(), DefaultHalo())
	if err != nil {
		t.Fatal(err)
	}
	before := sha256.Sum256(app.file)
	w := app.Workload()
	w.Run = func(fs vfs.FS) error {
		if err := app.Run(fs); err != nil {
			return err
		}
		_, _, err := app.Analyze(fs, new(Scratch))
		return err
	}
	w.Worker = nil
	worlds := map[string]func() (vfs.FS, error){
		"mem":     func() (vfs.FS, error) { return vfs.NewMemFS(), nil },
		"object":  func() (vfs.FS, error) { return vfs.NewObjectFS(), nil },
		"latency": func() (vfs.FS, error) { return vfs.NewLatencyFS(vfs.NewMemFS(), vfs.BurstBufferModel), nil },
		"mounted": func() (vfs.FS, error) {
			m := vfs.NewMountFS(vfs.NewMemFS())
			return m, m.Mount("/plt00000", vfs.NewObjectFS())
		},
	}
	var specs []core.CampaignSpec
	for name, world := range worlds {
		ww := w
		ww.NewFS = world
		for _, m := range core.AllModels() {
			specs = append(specs, core.CampaignSpec{
				Key: name + "/" + m.Short(), WorldKey: name, Workload: ww,
				Config: core.CampaignConfig{Fault: core.Config{Model: m}, Runs: 24, Seed: 35},
			})
		}
	}
	fired := 0
	for _, g := range (&core.Engine{Jobs: 4}).Run(specs) {
		if g.Err != nil {
			t.Fatalf("%s: %v", g.Spec.Key, g.Err)
		}
		for _, rec := range g.Result.Records {
			if rec.Fired {
				fired++
			}
		}
	}
	if fired == 0 {
		t.Fatal("no run fired its fault")
	}
	if sha256.Sum256(app.file) != before {
		t.Fatal("a campaign modified the App's kept HDF5 image")
	}
	got, err := app.Image()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), app.file) {
		t.Fatal("Image() differs from the image Run writes")
	}
}
