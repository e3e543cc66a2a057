package experiments

import (
	"strings"
	"testing"

	"ffis/internal/core"
)

// TestTieredSweepTwoWorkloads is the scenario acceptance test: the sweep
// produces a per-placement outcome table for two workloads, and placements
// behave as the storage layout dictates — nyx writes plotfiles to scratch
// (so scratch-only has targets and output-only has none), while Montage's
// stage 4 writes the mosaic to the output tier (the reverse).
func TestTieredSweepTwoWorkloads(t *testing.T) {
	o := smallOpts()
	out, results, err := Tiered([]string{"nyx", "MT4"}, core.DroppedWrite, o)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2*len(Placements) {
		t.Fatalf("got %d placement rows; want %d", len(results), 2*len(Placements))
	}
	byKey := map[string]PlacementResult{}
	for _, r := range results {
		byKey[r.Cell+"/"+r.Placement] = r
	}

	// All-armed placements must behave like classic campaigns: every run
	// tallied, targets available.
	for _, cell := range []string{"nyx", "MT4"} {
		r := byKey[cell+"/all-armed"]
		if r.NoTargets || r.Tally.Total() != o.Runs {
			t.Fatalf("%s all-armed: NoTargets=%v total=%d; want %d tallied runs",
				cell, r.NoTargets, r.Tally.Total(), o.Runs)
		}
	}

	// nyx: simulation writes route to the scratch tier only.
	if r := byKey["nyx/scratch-only"]; r.NoTargets || r.ProfileCount == 0 {
		t.Fatalf("nyx scratch-only should have injectable I/O: %+v", r)
	}
	if r := byKey["nyx/output-only"]; !r.NoTargets {
		t.Fatalf("nyx output-only should have no injectable I/O: %+v", r)
	}

	// MT4: the mosaic stage writes to the output tier only.
	if r := byKey["MT4/output-only"]; r.NoTargets || r.ProfileCount == 0 {
		t.Fatalf("MT4 output-only should have injectable I/O: %+v", r)
	}
	if r := byKey["MT4/scratch-only"]; !r.NoTargets {
		t.Fatalf("MT4 scratch-only should have no injectable I/O: %+v", r)
	}

	// The rendered table carries every placement row.
	for _, want := range []string{"workload", "all-armed", "scratch-only", "output-only",
		"nyx", "MT4", "no injectable I/O"} {
		if !strings.Contains(out, want) {
			t.Errorf("tiered table missing %q:\n%s", want, out)
		}
	}
}

// TestTieredModelsShareOneStore: the tiered sweeps of two models run into
// one results store, as "experiments -tiered -out DIR" runs them. Each
// model's placements get their own spec keys, so the second sweep neither
// finds the first's finalized records nor refuses them as another campaign.
func TestTieredModelsShareOneStore(t *testing.T) {
	o := storeOpts(t, smallOpts())
	var tables []string
	for _, m := range []core.Model{core.BitFlip, core.DroppedWrite} {
		out, _, err := Tiered([]string{"MT4"}, m, o)
		if err != nil {
			t.Fatalf("%s sweep: %v", m.Name(), err)
		}
		want, _, err := Tiered([]string{"MT4"}, m, smallOpts())
		if err != nil {
			t.Fatal(err)
		}
		if out != want {
			t.Fatalf("%s sweep into the shared store renders\n%s\nwant\n%s", m.Name(), out, want)
		}
		tables = append(tables, out)
	}
	if tables[0] == tables[1] {
		t.Fatal("the two models' sweeps render the same table")
	}
}

// TestTieredScratchArmedMatchesAllForNyx pins the routing equivalence: for
// a workload whose entire instrumented I/O lives on one tier, arming that
// tier is the same experiment as arming the world — identical target
// counts, and with the same seed an identical tally.
func TestTieredScratchArmedMatchesAllForNyx(t *testing.T) {
	o := smallOpts()
	_, results, err := Tiered([]string{"nyx"}, core.BitFlip, o)
	if err != nil {
		t.Fatal(err)
	}
	var all, scratch PlacementResult
	for _, r := range results {
		switch r.Placement {
		case "all-armed":
			all = r
		case "scratch-only":
			scratch = r
		}
	}
	if all.ProfileCount != scratch.ProfileCount {
		t.Fatalf("profile counts differ: all=%d scratch=%d", all.ProfileCount, scratch.ProfileCount)
	}
	if all.Tally != scratch.Tally {
		t.Fatalf("tallies differ: all=%v scratch=%v", all.Tally, scratch.Tally)
	}
}

// TestTieredBackendSweepDeterminism is the backend-sweep acceptance test:
// one cell swept over {MemFS, ObjectFS, latency-modeled MemFS} runs through
// the engine with tallies — and simulated time — independent of the worker
// count, latency rows carry nonzero simulated time, and the unmodeled
// backends stay at zero so their persisted records keep their legacy bytes.
func TestTieredBackendSweepDeterminism(t *testing.T) {
	run := func(jobs int) []PlacementResult {
		o := smallOpts()
		o.Backends = []string{"mem", "object", "latency"}
		o.Engine = &core.Engine{Jobs: jobs}
		_, results, err := Tiered([]string{"MT2"}, core.DroppedWrite, o)
		if err != nil {
			t.Fatal(err)
		}
		return results
	}
	serial, parallel := run(1), run(8)
	if len(serial) != 3*len(Placements) {
		t.Fatalf("got %d rows; want %d", len(serial), 3*len(Placements))
	}
	for i := range serial {
		a, b := serial[i], parallel[i]
		if a.Backend != b.Backend || a.Placement != b.Placement ||
			a.ProfileCount != b.ProfileCount || a.Tally != b.Tally || a.SimNanos != b.SimNanos {
			t.Errorf("row %d diverges across worker counts:\n  1 worker:  %+v\n  8 workers: %+v", i, a, b)
		}
		switch {
		case a.Backend == "latency" && !a.NoTargets && a.SimNanos == 0:
			t.Errorf("latency row %s/%s has zero simulated time", a.Cell, a.Placement)
		case a.Backend != "latency" && a.SimNanos != 0:
			t.Errorf("%s row %s/%s has simulated time %d; want 0", a.Backend, a.Cell, a.Placement, a.SimNanos)
		}
	}
}

func TestParseMountSpec(t *testing.T) {
	for _, tc := range []struct {
		in      string
		path    string
		backend string
		wantErr bool
	}{
		{in: "/scratch", path: "/scratch", backend: "mem"},
		{in: "/scratch=mem", path: "/scratch", backend: "mem"},
		{in: "/data=os:/tmp/x", wantErr: true},
		{in: "/a/b/../c", path: "/a/c", backend: "mem"},
		{in: "/obj=object", path: "/obj", backend: "object"},
		{in: "/obj=object:lag=2", path: "/obj", backend: "object:lag=2"},
		{in: "/bb=latency:bb", path: "/bb", backend: "latency:bb"},
		{in: "/pfs=latency", path: "/pfs", backend: "latency"},
		{in: "relative", wantErr: true},
		{in: "/x=floppy", wantErr: true},
		{in: "/x=os:", wantErr: true},
		{in: "/x=object:lag=", wantErr: true},
		{in: "/x=object:lag=-1", wantErr: true},
		{in: "/x=latency:ssd", wantErr: true},
		{in: "=mem", wantErr: true},
	} {
		ms, err := ParseMountSpec(tc.in)
		if tc.wantErr {
			if err == nil {
				t.Errorf("ParseMountSpec(%q) = %+v; want error", tc.in, ms)
			}
			continue
		}
		if err != nil || ms.Path != tc.path || ms.Backend != tc.backend {
			t.Errorf("ParseMountSpec(%q) = %+v, %v; want {%s %s}", tc.in, ms, err, tc.path, tc.backend)
		}
	}
}

// FuzzParseMountSpec checks the -mount flag parser on arbitrary strings:
// it never panics, and every spec it accepts re-parses from
// Path+"="+Backend to itself.
func FuzzParseMountSpec(f *testing.F) {
	for _, s := range []string{"/scratch", "/a/b/../c", "/obj=object:lag=2", "/bb=latency:bb",
		"/data=os:/tmp/x=y", "//x/./y/=mem", "relative", "=mem", "/x=object:lag=-1"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		ms, err := ParseMountSpec(s)
		if err != nil {
			return
		}
		back, err := ParseMountSpec(ms.Path + "=" + ms.Backend)
		if err != nil || back != ms {
			t.Fatalf("ParseMountSpec(%q) = %+v, but it re-parses to %+v, %v", s, ms, back, err)
		}
	})
}

// TestNewWorkloadWithMounts checks the cmd/ffis wiring end to end: a cell
// on a custom mounted world, armed on one mount, still campaigns cleanly.
func TestNewWorkloadWithMounts(t *testing.T) {
	ws := WireSpec{
		Cell: "nyx", Model: "dropped-write", Runs: 6, Seed: 2021, NyxN: 24,
		Mounts: []string{"/plt00000=mem"}, ArmMounts: []string{"/plt00000"},
	}
	res, err := Fig7Cell(ws, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Tally.Total() != ws.Runs {
		t.Fatalf("tally total = %d; want %d", res.Tally.Total(), ws.Runs)
	}
}
