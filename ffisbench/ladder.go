package main

import (
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"testing"
	"time"

	"ffis/internal/apps/montage"
	"ffis/internal/apps/nyx"
	"ffis/internal/campaignd"
	"ffis/internal/classify"
	"ffis/internal/core"
	"ffis/internal/experiments"
	"ffis/internal/results"
	"ffis/internal/stats"
	"ffis/internal/vfs"
)

// ladderBenchtime is the testing benchtime of each rung: long enough for
// sub-microsecond operations to run millions of times, short enough that
// the whole ladder adds seconds, not minutes, to a traced run.
const ladderBenchtime = "250ms"

// ioSpan is the file size the 4 KiB read and write rungs rotate over.
const ioSpan = 256 << 10

// rung is one layer-ladder metric: a testing.Benchmark over public
// functions of one layer. moves names the workload and end-to-end metric a
// speed-up of the rung should improve; holds names a workload whose
// end-to-end metrics it should leave unchanged.
type rung struct {
	name, unit   string
	moves, holds string
	bench        func(b *testing.B)
	// value converts the benchmark result into the metric; nil is the mean
	// time per operation in unit.
	value func(testing.BenchmarkResult) float64
}

func allocsPerOp(r testing.BenchmarkResult) float64 { return float64(r.AllocsPerOp()) }

// ladder lists the rungs, bottom layer first.
var ladder = []rung{
	{name: "vfs.memfs_write4k_ns", unit: "ns", moves: "fig7_grid:runs_per_s", holds: "distributed_grid",
		bench: func(b *testing.B) { benchWrite4K(b, vfs.NewMemFS(), "/f") }},
	{name: "vfs.memfs_read4k_ns", unit: "ns", moves: "fig7_grid:runs_per_s", holds: "distributed_grid",
		bench: func(b *testing.B) { benchRead4K(b, vfs.NewMemFS(), "/f") }},
	{name: "vfs.memfs_clone_montage_us", unit: "us", moves: "fig7_grid:runs_per_s", holds: "distributed_grid",
		bench: benchMontageClone},
	{name: "vfs.clone_first_write_64mib_us", unit: "us", moves: "fig7_grid:runs_per_s", holds: "distributed_grid",
		bench: benchCloneFirstWrite},
	{name: "vfs.mountfs_write4k_ns", unit: "ns", moves: "rw_tiered:runs_per_s", holds: "fig7_grid",
		bench: func(b *testing.B) { benchWrite4K(b, mountWorld(b), "/scratch/f") }},
	{name: "vfs.mountfs_clone_5mount_us", unit: "us", moves: "rw_tiered:runs_per_s", holds: "fig7_grid",
		bench: benchMountClone},
	{name: "vfs.objectfs_write4k_ns", unit: "ns", moves: "rw_tiered:runs_per_s", holds: "fig7_grid",
		bench: func(b *testing.B) { benchWrite4K(b, vfs.NewObjectFS(), "/f") }},
	{name: "vfs.latencyfs_read4k_ns", unit: "ns", moves: "rw_tiered:runs_per_s", holds: "fig7_grid",
		bench: func(b *testing.B) {
			benchRead4K(b, vfs.NewLatencyFS(vfs.NewMemFS(), vfs.ParallelFSModel), "/f")
		}},
	{name: "core.injector_armed_read4k_ns", unit: "ns", moves: "rw_tiered:runs_per_s", holds: "fig7_grid",
		bench: func(b *testing.B) { benchRead4K(b, armed(b, "read-bit-flip"), "/f") }},
	{name: "hdf5.nyx24_write_read_us", unit: "us", moves: "rw_tiered:runs_per_s", holds: "mt2_adaptive",
		bench: benchHDF5},
	{name: "core.injector_armed_write4k_ns", unit: "ns", moves: "fig7_grid:runs_per_s", holds: "distributed_grid",
		bench: benchInjectorWrite},
	{name: "core.injector_allocs_per_op", unit: "allocs/op", moves: "fig7_grid:runs_per_s", holds: "distributed_grid",
		bench: benchInjectorWrite, value: allocsPerOp},
	{name: "apps.nyx_halo_us", unit: "us", moves: "fig7_grid:runs_per_s", holds: "mt2_adaptive",
		bench: benchNyxHalo},
	{name: "apps.mt4_run_us", unit: "us", moves: "fig7_grid:runs_per_s", holds: "rw_tiered",
		bench: benchMT4Run},
	{name: "classify.mt2_us", unit: "us", moves: "fig7_grid:runs_per_s,mt2_adaptive:wall_s", holds: "rw_tiered",
		bench: benchMT2Classify},
	{name: "campaignd.ingest_batch64_us", unit: "us", moves: "distributed_grid:wall_s", holds: "fig7_grid",
		bench: benchIngest},
	{name: "core.eventbus_publish_ns", unit: "ns", moves: "core.trace_overhead_pct", holds: "fig7_grid",
		bench: benchPublish},
}

// runLadder benchmarks every rung.
func runLadder() (map[string]float64, error) {
	if flag.Lookup("test.benchtime") == nil {
		testing.Init()
	}
	if err := flag.Set("test.benchtime", ladderBenchtime); err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, r := range ladder {
		res := testing.Benchmark(r.bench)
		if res.N == 0 {
			return nil, fmt.Errorf("ladder rung %s failed", r.name)
		}
		if r.value != nil {
			out[r.name] = r.value(res)
			continue
		}
		ns := float64(res.T.Nanoseconds()) / float64(res.N)
		switch r.unit {
		case "us":
			out[r.name] = ns / 1e3
		default:
			out[r.name] = ns
		}
	}
	return out, nil
}

func benchWrite4K(b *testing.B, fs vfs.FS, name string) {
	if err := vfs.WriteFile(fs, name, make([]byte, ioSpan)); err != nil {
		b.Fatal(err)
	}
	f, err := fs.Append(name)
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	buf := make([]byte, 4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.WriteAt(buf, int64(i%(ioSpan/4096))*4096); err != nil {
			b.Fatal(err)
		}
	}
}

func benchRead4K(b *testing.B, fs vfs.FS, name string) {
	if err := vfs.WriteFile(fs, name, make([]byte, ioSpan)); err != nil {
		b.Fatal(err)
	}
	f, err := fs.Open(name)
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	buf := make([]byte, 4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.ReadAt(buf, int64(i%(ioSpan/4096))*4096); err != nil {
			b.Fatal(err)
		}
	}
}

// mountWorld is a MountFS over MemFS with one extra MemFS mount, so
// /scratch paths route through the mount table.
func mountWorld(b *testing.B) vfs.FS {
	m := vfs.NewMountFS(vfs.NewMemFS())
	if err := m.Mount("/scratch", vfs.NewMemFS()); err != nil {
		b.Fatal(err)
	}
	return m
}

// armed wraps a MemFS in an injector of the named model whose target
// instance is never reached: every operation pays the armed pass-through.
func armed(b *testing.B, model string) vfs.FS {
	m, ok := core.Lookup(model)
	if !ok {
		b.Fatalf("unregistered fault model %q", model)
	}
	sig := core.Config{Model: m}.Signature()
	return core.NewInjector(sig, math.MaxInt64, stats.NewRNG(1)).Wrap(vfs.NewMemFS())
}

func benchInjectorWrite(b *testing.B) { benchWrite4K(b, armed(b, "bit-flip"), "/f") }

// benchMontageClone clones a Montage-sized world: raw tiles plus the
// intermediates of the first three stages.
func benchMontageClone(b *testing.B) {
	fs := vfs.NewMemFS()
	cfg := montage.DefaultConfig()
	if err := cfg.WriteRawTiles(fs); err != nil {
		b.Fatal(err)
	}
	if err := cfg.RunPipeline(fs, montage.StageProject, montage.StageBg); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if fs.Clone() == nil {
			b.Fatal("nil clone")
		}
	}
}

// benchCloneFirstWrite clones a world holding one 64 MiB file and writes
// 4 KiB into the clone: the copy-on-write divergence cost.
func benchCloneFirstWrite(b *testing.B) {
	fs := vfs.NewMemFS()
	if err := vfs.WriteFile(fs, "/big", make([]byte, 64<<20)); err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, 4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := fs.Clone().Append("/big")
		if err != nil {
			b.Fatal(err)
		}
		if _, err := f.WriteAt(buf, 0); err != nil {
			b.Fatal(err)
		}
		if err := f.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

// benchMountClone clones the five-mount Montage tier layout.
func benchMountClone(b *testing.B) {
	m := vfs.NewMountFS(vfs.NewMemFS())
	for _, dir := range []string{"/raw", "/proj", "/diff", "/corr", "/mosaic"} {
		if err := m.Mount(dir, vfs.NewMemFS()); err != nil {
			b.Fatal(err)
		}
		if err := vfs.WriteFile(m, dir+"/data", make([]byte, 64<<10)); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Clone(); err != nil {
			b.Fatal(err)
		}
	}
}

// nyxField is the density field of the benchmark's Nyx worlds.
func nyxField() []float64 {
	sim := nyx.DefaultSim()
	sim.N = nyxN
	sim.NumHalos = 3
	return sim.Generate()
}

func benchHDF5(b *testing.B) {
	field := nyxField()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fs := vfs.NewMemFS()
		if err := fs.MkdirAll("/plt00000"); err != nil {
			b.Fatal(err)
		}
		if err := nyx.WriteDataset(fs, nyx.OutputPath, field, nyxN); err != nil {
			b.Fatal(err)
		}
		if _, _, err := nyx.ReadDataset(fs, nyx.OutputPath); err != nil {
			b.Fatal(err)
		}
	}
}

func benchNyxHalo(b *testing.B) {
	field := nyxField()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(nyx.FindHalos(field, nyxN, nyx.DefaultHalo()).Halos) == 0 {
			b.Fatal("no halos")
		}
	}
}

// snapshotOf builds a Figure 7 cell's workload and its post-Setup snapshot.
func snapshotOf(b *testing.B, cell string) (core.Workload, *core.WorldSnapshot) {
	w, err := experiments.NewWorkload(cell, experiments.Options{})
	if err != nil {
		b.Fatal(err)
	}
	snap, err := core.NewWorldSnapshot(w)
	if err != nil {
		b.Fatal(err)
	}
	return w, snap
}

func benchMT4Run(b *testing.B) {
	w, snap := snapshotOf(b, "MT4")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		world, err := snap.World()
		if err != nil {
			b.Fatal(err)
		}
		if err := w.Run(world); err != nil {
			b.Fatal(err)
		}
	}
}

func benchMT2Classify(b *testing.B) {
	w, snap := snapshotOf(b, "MT2")
	world, err := snap.World()
	if err != nil {
		b.Fatal(err)
	}
	if err := w.Run(world); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if o := w.Classify(world, nil); o != classify.Benign {
			b.Fatalf("fault-free MT2 classified %v", o)
		}
	}
}

// benchIngest times Coordinator.Ingest of one 64-record batch on a live
// lease, store encode and append included.
func benchIngest(b *testing.B) {
	const batch = 64
	dir, err := os.MkdirTemp("", "ffisbench-ingest-*")
	if err != nil {
		b.Fatal(err)
	}
	defer os.RemoveAll(dir)
	ws := experiments.WireSpec{Cell: "nyx", Model: "bit-flip", Runs: batch * b.N, Seed: 1, NyxN: nyxN}.Normalized()
	specs := []experiments.WireSpec{ws}
	man, err := campaignd.ManifestFor(specs)
	if err != nil {
		b.Fatal(err)
	}
	st, err := results.Create(dir, man)
	if err != nil {
		b.Fatal(err)
	}
	coord, err := campaignd.NewCoordinator(st, specs, time.Hour)
	if err != nil {
		b.Fatal(err)
	}
	defer coord.Close()
	grant, ok, _, err := coord.Lease("bench")
	if err != nil || !ok {
		b.Fatal(errors.Join(err, errors.New("no lease granted")))
	}
	spec, err := ws.CampaignSpec()
	if err != nil {
		b.Fatal(err)
	}
	hdr := results.NewHeader(core.CampaignMeta{
		Workload: spec.Workload.Name, Signature: spec.Config.Fault.Signature(),
		ProfileCount: 1 << 20, Runs: ws.Runs, Seed: ws.Seed,
	})
	if err := coord.Ingest(grant.LeaseID, &hdr, nil); err != nil {
		b.Fatal(err)
	}
	m := core.MustModel("bit-flip")
	recs := make([]results.Record, batch)
	for j := range recs {
		recs[j] = results.NewRecord(core.RunRecord{
			Target: int64(j) * 977, Outcome: classify.SDC, Fired: true, Shots: 1,
			Mutation: core.Mutation{Model: m, Path: nyx.OutputPath, Offset: int64(j) * 4099, Length: 4096, BitPos: j % 8},
		})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range recs {
			recs[j].Index = i*batch + j
		}
		if err := coord.Ingest(grant.LeaseID, nil, recs); err != nil {
			b.Fatal(err)
		}
	}
}

// benchPublish publishes RunDone events to a bus with one subscriber, the
// cost every traced run pays per run.
func benchPublish(b *testing.B) {
	bus := core.NewEventBus()
	bus.Subscribe(0, func(core.Event) {})
	ev := core.Event{Kind: core.EventRunDone, Key: "MT2/BF"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bus.Publish(ev)
	}
	b.StopTimer()
	bus.Close()
}
