package campaignd

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ffis/internal/core"
	"ffis/internal/experiments"
	"ffis/internal/results"
)

// testGrid builds a small Montage grid: the MT cells are the cheapest
// worlds in the registry, so the end-to-end test stays fast under -race.
func testGrid(cells []string, runs int, seed uint64) []experiments.WireSpec {
	var specs []experiments.WireSpec
	for _, cell := range cells {
		for _, model := range []string{"bit-flip", "shorn-write", "dropped-write"} {
			specs = append(specs, experiments.WireSpec{Cell: cell, Model: model, Runs: runs, Seed: seed})
		}
	}
	return specs
}

// storeBytes reads every persisted file of a results store keyed by its
// store-relative path.
func storeBytes(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	for _, rel := range []string{"manifest.json"} {
		b, err := os.ReadFile(filepath.Join(dir, rel))
		if err != nil {
			t.Fatalf("read %s: %v", rel, err)
		}
		out[rel] = b
	}
	entries, err := os.ReadDir(filepath.Join(dir, "records"))
	if err != nil {
		t.Fatalf("read records dir: %v", err)
	}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(dir, "records", e.Name()))
		if err != nil {
			t.Fatalf("read %s: %v", e.Name(), err)
		}
		out["records/"+e.Name()] = b
	}
	return out
}

// TestDistributedKillWorkerByteIdentity is the acceptance test of the
// distributed service: a coordinator plus three in-process workers — one
// of which dies mid-spec after streaming a partial prefix — must converge
// to a results store byte-identical to a single-machine RunGrid of the
// same grid at the same seed. Every mechanism is on the line at once:
// lease re-queue after heartbeat lapse, resume-at-first-missing-index,
// strict-order ingest, header validation across successive workers, and
// the canonical record encoding shared by both paths.
func TestDistributedKillWorkerByteIdentity(t *testing.T) {
	const runs, seed = 12, uint64(7)
	specs := testGrid([]string{"MT1"}, runs, seed)
	man, err := ManifestFor(specs)
	if err != nil {
		t.Fatal(err)
	}

	// Single-machine reference, through the same canonical spec builder
	// the workers use.
	refDir := t.TempDir()
	refStore, err := results.Create(refDir, man)
	if err != nil {
		t.Fatal(err)
	}
	cspecs := make([]core.CampaignSpec, len(specs))
	for i, ws := range specs {
		if cspecs[i], err = ws.CampaignSpec(); err != nil {
			t.Fatal(err)
		}
	}
	grid, err := results.RunGrid(&core.Engine{}, refStore, cspecs)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range grid {
		if r.Err != nil {
			t.Fatalf("reference spec %q: %v", r.Spec.Key, r.Err)
		}
	}

	// Distributed run. The lease TTL balances two pressures: short enough
	// that the killed worker's spec re-queues promptly, long enough that
	// race-mode scheduler stalls cannot starve a live worker's 50ms
	// heartbeats into a spurious expiry.
	outDir := t.TempDir()
	st, err := results.CreateOrResume(outDir, false, man)
	if err != nil {
		t.Fatal(err)
	}
	coord, err := NewCoordinator(st, specs, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()

	// Prefetch is on for every worker: the byte-identity assertion below
	// is also the proof that lease prefetching never changes stored bytes
	// — including across w1's mid-spec death while holding a prefetched
	// lease, which must expire and re-queue cleanly.
	workers := []*Worker{
		{ID: "w1", Coordinator: srv.URL, Client: &http.Client{Transport: new(killAfterRecords)}, Poll: 25 * time.Millisecond, Heartbeat: 50 * time.Millisecond, Batch: 3, Prefetch: true},
		{ID: "w2", Coordinator: srv.URL, Poll: 25 * time.Millisecond, Heartbeat: 50 * time.Millisecond, Batch: 3, Prefetch: true},
		{ID: "w3", Coordinator: srv.URL, Poll: 25 * time.Millisecond, Heartbeat: 50 * time.Millisecond, Batch: 3, Prefetch: true},
	}
	errs := make([]error, len(workers))
	var wg sync.WaitGroup
	for i, w := range workers {
		wg.Add(1)
		go func(i int, w *Worker) {
			defer wg.Done()
			errs[i] = w.Run(context.Background())
		}(i, w)
		if i == 0 {
			// w2 and w3 start only once w1 holds a lease: with prefetch,
			// two workers can lease all three specs before w1's first
			// poll, leaving w1 no spec to die in.
			waitLeasedBy(t, coord, w.ID)
		}
	}
	wg.Wait()

	if !errors.Is(errs[0], errWorkerKilled) {
		t.Fatalf("w1 should have died of its transport mid-spec, got %v", errs[0])
	}
	for i := 1; i < len(errs); i++ {
		if errs[i] != nil {
			t.Fatalf("worker %s: %v", workers[i].ID, errs[i])
		}
	}
	if !coord.Done() {
		t.Fatalf("surviving workers exited but the grid is not done: %+v", coord.Progress())
	}

	want, got := storeBytes(t, refDir), storeBytes(t, outDir)
	if len(want) != len(got) {
		t.Fatalf("store file sets differ: reference %d files, distributed %d", len(want), len(got))
	}
	for rel, wb := range want {
		gb, ok := got[rel]
		if !ok {
			t.Fatalf("distributed store missing %s", rel)
		}
		if string(wb) != string(gb) {
			t.Errorf("%s differs between single-machine and distributed runs:\n--- reference ---\n%s\n--- distributed ---\n%s", rel, wb, gb)
		}
	}
}

// errWorkerKilled is the simulated death of a worker whose transport is a
// killAfterRecords.
var errWorkerKilled = errors.New("campaignd test: worker killed after its first record batch")

// killAfterRecords is a worker's transport that dies mid-lease: once the
// coordinator has acknowledged one /records batch that carries records,
// it fails every later request with errWorkerKilled. The acknowledged
// records are durable on the coordinator, so the death lands between two
// batches, where a SIGKILL between two HTTP posts would.
type killAfterRecords struct {
	dead atomic.Bool
}

func (k *killAfterRecords) RoundTrip(req *http.Request) (*http.Response, error) {
	if k.dead.Load() {
		if req.Body != nil {
			req.Body.Close()
		}
		return nil, errWorkerKilled
	}
	var body []byte
	if req.Body != nil {
		var err error
		if body, err = io.ReadAll(req.Body); err != nil {
			return nil, err
		}
		req.Body.Close()
		req.Body = io.NopCloser(bytes.NewReader(body))
	}
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err != nil || req.URL.Path != "/records" || resp.StatusCode != http.StatusNoContent {
		return resp, err
	}
	var rr RecordsRequest
	if json.Unmarshal(body, &rr) == nil && len(rr.Records) > 0 {
		k.dead.Store(true)
	}
	return resp, nil
}

// waitLeasedBy polls the coordinator until worker holds a lease.
func waitLeasedBy(t *testing.T, coord *Coordinator, worker string) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(2 * time.Millisecond) {
		for _, p := range coord.Progress() {
			if p.State == "leased" && p.Worker == worker {
				return
			}
		}
	}
	t.Fatalf("worker %s never leased a spec", worker)
}

// coordForOneSpec builds a coordinator over a single cheap spec with a
// controllable clock.
func coordForOneSpec(t *testing.T, runs int, seed uint64, ttl time.Duration) (*Coordinator, experiments.WireSpec, *time.Time) {
	t.Helper()
	ws := experiments.WireSpec{Cell: "MT1", Model: "bit-flip", Runs: runs, Seed: seed}
	man, err := ManifestFor([]experiments.WireSpec{ws})
	if err != nil {
		t.Fatal(err)
	}
	st, err := results.Create(t.TempDir(), man)
	if err != nil {
		t.Fatal(err)
	}
	coord, err := NewCoordinator(st, []experiments.WireSpec{ws}, ttl)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { coord.Close() })
	clock := time.Unix(1700000000, 0)
	coord.now = func() time.Time { return clock }
	return coord, ws.Normalized(), &clock
}

// header builds a wire header consistent with the spec, the way a worker
// would after profiling.
func wireHeader(t *testing.T, ws experiments.WireSpec, profileCount int64) results.Header {
	t.Helper()
	spec, err := ws.CampaignSpec()
	if err != nil {
		t.Fatal(err)
	}
	return results.NewHeader(core.CampaignMeta{
		Workload:     spec.Workload.Name,
		Signature:    spec.Config.Fault.Signature(),
		ProfileCount: profileCount,
		Runs:         spec.Config.Runs,
		Seed:         spec.Config.Seed,
	})
}

func TestLeaseExpiryRequeuesFromDeliveredPrefix(t *testing.T) {
	coord, ws, clock := coordForOneSpec(t, 10, 3, time.Minute)

	g1, ok, done, err := coord.Lease("a")
	if err != nil || !ok || done {
		t.Fatalf("first lease: ok=%v done=%v err=%v", ok, done, err)
	}
	if g1.Start != 0 {
		t.Fatalf("fresh spec should lease from 0, got %d", g1.Start)
	}
	// The spec is leased out: nothing else to hand a second worker.
	if _, ok, done, _ := coord.Lease("b"); ok || done {
		t.Fatalf("spec should be exclusively leased (ok=%v done=%v)", ok, done)
	}

	h := wireHeader(t, ws, 11)
	recs := []results.Record{
		{Index: 0, Outcome: "benign"},
		{Index: 1, Outcome: "SDC", Fired: true},
		{Index: 2, Outcome: "benign"},
		{Index: 3, Outcome: "crash", Fired: true, RunErr: "boom"},
	}
	if err := coord.Ingest(g1.LeaseID, &h, recs); err != nil {
		t.Fatal(err)
	}

	// Heartbeats stop; the TTL lapses; the lease is revoked.
	*clock = clock.Add(2 * time.Minute)
	if coord.Heartbeat(HeartbeatRequest{LeaseID: g1.LeaseID}) {
		t.Fatal("heartbeat on a lapsed lease should be refused")
	}
	if err := coord.Ingest(g1.LeaseID, nil, recs); !errors.Is(err, errLeaseGone) {
		t.Fatalf("ingest on a lapsed lease: want errLeaseGone, got %v", err)
	}

	// The re-issued lease resumes exactly after the dead worker's
	// delivered prefix.
	g2, ok, _, err := coord.Lease("b")
	if err != nil || !ok {
		t.Fatalf("re-lease after expiry: ok=%v err=%v", ok, err)
	}
	if g2.Start != len(recs) {
		t.Fatalf("re-lease should resume at %d (the delivered prefix), got %d", len(recs), g2.Start)
	}
	// The successor's header must agree with the recovered one: a worker
	// whose world profiled differently is refused.
	drifted := wireHeader(t, ws, 99)
	if err := coord.Ingest(g2.LeaseID, &drifted, nil); err == nil || !strings.Contains(err.Error(), "does not match") {
		t.Fatalf("drifted profile count across workers: want header mismatch, got %v", err)
	}
}

func TestIngestRejectsOutOfOrderAndDriftedHeaders(t *testing.T) {
	coord, ws, _ := coordForOneSpec(t, 10, 3, time.Minute)
	g, ok, _, err := coord.Lease("a")
	if err != nil || !ok {
		t.Fatalf("lease: ok=%v err=%v", ok, err)
	}

	// Records before any header are refused.
	if err := coord.Ingest(g.LeaseID, nil, []results.Record{{Index: 0, Outcome: "benign"}}); err == nil ||
		!strings.Contains(err.Error(), "header") {
		t.Fatalf("want header-required error, got %v", err)
	}

	// A header whose campaign identity drifted from the spec is refused
	// before anything persists.
	bad := wireHeader(t, ws, 11)
	bad.Seed = 999
	if err := coord.Ingest(g.LeaseID, &bad, nil); err == nil || !strings.Contains(err.Error(), "different campaign") {
		t.Fatalf("want HeaderMatches rejection, got %v", err)
	}

	h := wireHeader(t, ws, 11)
	if err := coord.Ingest(g.LeaseID, &h, nil); err != nil {
		t.Fatal(err)
	}
	// Strict index order: a gap is an error, not a buffer.
	if err := coord.Ingest(g.LeaseID, nil, []results.Record{{Index: 1, Outcome: "benign"}}); err == nil ||
		!strings.Contains(err.Error(), "out of order") {
		t.Fatalf("want out-of-order rejection, got %v", err)
	}
	// Completing with runs missing is refused.
	if err := coord.Complete(g.LeaseID); err == nil || !strings.Contains(err.Error(), "of 10 runs") {
		t.Fatalf("want incomplete-complete rejection, got %v", err)
	}
}

// TestIngestRejectsBatchWhole sends the batch [1, 5] after record 0: the
// coordinator must refuse it with a conflict and leave the partial record
// file and the persisted count exactly as they were, record 1 included.
func TestIngestRejectsBatchWhole(t *testing.T) {
	coord, ws, _ := coordForOneSpec(t, 10, 3, time.Minute)
	g, ok, _, err := coord.Lease("a")
	if err != nil || !ok {
		t.Fatalf("lease: ok=%v err=%v", ok, err)
	}
	h := wireHeader(t, ws, 11)
	if err := coord.Ingest(g.LeaseID, &h, []results.Record{{Index: 0, Outcome: "benign"}}); err != nil {
		t.Fatal(err)
	}
	partials, err := filepath.Glob(filepath.Join(coord.store.Dir(), "*", "*.partial"))
	if err != nil || len(partials) != 1 {
		t.Fatalf("partial files %v (%v), want one", partials, err)
	}
	before, err := os.ReadFile(partials[0])
	if err != nil {
		t.Fatal(err)
	}
	for _, batch := range [][]results.Record{
		{{Index: 1, Outcome: "benign"}, {Index: 5, Outcome: "benign"}},
		{{Index: 1, Outcome: "benign"}, {Index: 10, Outcome: "benign"}},
	} {
		err := coord.Ingest(g.LeaseID, nil, batch)
		if err == nil || ingestStatus(err) != http.StatusConflict {
			t.Fatalf("batch %v: want a conflict, got %v", batch, err)
		}
		after, rerr := os.ReadFile(partials[0])
		if rerr != nil {
			t.Fatal(rerr)
		}
		if !bytes.Equal(after, before) {
			t.Fatalf("refused batch %v changed the partial file:\n%s\nwant\n%s", batch, after, before)
		}
		if p := coord.Progress()[0].Persisted; p != 1 {
			t.Fatalf("refused batch %v: persisted %d, want 1", batch, p)
		}
	}
	// The refused batch's valid prefix is still what comes next.
	if err := coord.Ingest(g.LeaseID, nil, []results.Record{{Index: 1, Outcome: "benign"}}); err != nil {
		t.Fatalf("record 1 after the refused batch: %v", err)
	}
}

func TestManifestForRejectsMixedCampaigns(t *testing.T) {
	specs := []experiments.WireSpec{
		{Cell: "MT1", Model: "bit-flip", Runs: 10, Seed: 3},
		{Cell: "MT2", Model: "bit-flip", Runs: 20, Seed: 3},
	}
	if _, err := ManifestFor(specs); err == nil {
		t.Fatal("mixed run budgets should refuse a shared store")
	}
	specs[1].Runs = 10
	specs[0].Backend = "object"
	specs[1].Backend = "mem"
	man, err := ManifestFor(specs)
	if err != nil {
		t.Fatal(err)
	}
	if man.Seed != 3 || man.Runs != 10 || len(man.Worlds) != 0 {
		t.Fatalf("manifest %+v, want seed 3, runs 10 and no worlds before registration", man)
	}
	// The coordinator records each spec's world; a later coordinator that
	// serves a spec on another backend is refused.
	dir := t.TempDir()
	st, err := results.Create(dir, man)
	if err != nil {
		t.Fatal(err)
	}
	coord, err := NewCoordinator(st, specs, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	coord.Close()
	want := map[string]string{"MT1/BF": specs[0].WorldKey(), "MT2/BF": specs[1].WorldKey()}
	if got := st.Manifest().Worlds; !reflect.DeepEqual(got, want) {
		t.Fatalf("manifest worlds %v, want %v", got, want)
	}
	specs[1].Backend = "object"
	again, err := results.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewCoordinator(again, specs, time.Minute); err == nil || !strings.Contains(err.Error(), "world") {
		t.Fatalf("a spec moved to another backend must be refused, got %v", err)
	}
}

// TestNewCoordinatorRefusesFinalizedSpecOfAnotherCampaign: a resumed store
// holds key k finalized with MT1 bit-flip records. A coordinator asked to
// serve k as a dropped-write spec must refuse it, as a local RunGrid does,
// instead of serving the stored bit-flip records as that spec's result.
func TestNewCoordinatorRefusesFinalizedSpecOfAnotherCampaign(t *testing.T) {
	const runs, seed = 4, uint64(3)
	stored := experiments.WireSpec{Cell: "MT1", Model: "bit-flip", Runs: runs, Seed: seed}.Normalized()
	man, err := ManifestFor([]experiments.WireSpec{stored})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	st, err := results.Create(dir, man)
	if err != nil {
		t.Fatal(err)
	}
	cspec, err := stored.CampaignSpec()
	if err != nil {
		t.Fatal(err)
	}
	if grid, err := results.RunGrid(&core.Engine{}, st, []core.CampaignSpec{cspec}); err != nil || grid[0].Err != nil {
		t.Fatalf("stored grid: %v / %v", err, grid[0].Err)
	}

	resumed, err := results.CreateOrResume(dir, true, man)
	if err != nil {
		t.Fatal(err)
	}
	other := experiments.WireSpec{Key: stored.Key, Cell: "MT1", Model: "dropped-write", Runs: runs, Seed: seed}
	coord, err := NewCoordinator(resumed, []experiments.WireSpec{other}, time.Minute)
	if err == nil {
		coord.Close()
	}
	if err == nil || !strings.Contains(err.Error(), "different campaign") {
		t.Fatalf("a finalized spec of another campaign must be refused, got %v", err)
	}
	ospec, err := other.CampaignSpec()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := results.RunGrid(&core.Engine{}, resumed, []core.CampaignSpec{ospec}); err == nil ||
		!strings.Contains(err.Error(), "different campaign") {
		t.Fatalf("a local RunGrid must refuse it too, got %v", err)
	}
}

// TestLockedStoreCoordinatorRegistersNothing: while a coordinator holds the
// store, a second coordinator and a local RunGrid on another handle are
// refused by the lock, and neither registers its key or world.
func TestLockedStoreCoordinatorRegistersNothing(t *testing.T) {
	specs := testGrid([]string{"MT1"}, 4, 3)
	man, err := ManifestFor(specs)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	st, err := results.Create(dir, man)
	if err != nil {
		t.Fatal(err)
	}
	coord, err := NewCoordinator(st, specs[:1], time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	want := storeBytes(t, dir)["manifest.json"]

	again, err := results.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if c2, err := NewCoordinator(again, specs[1:], time.Minute); err == nil || !strings.Contains(err.Error(), "another process") {
		if err == nil {
			c2.Close()
		}
		t.Fatalf("a second coordinator must be refused by the lock, got %v", err)
	}
	if got := storeBytes(t, dir)["manifest.json"]; !bytes.Equal(got, want) {
		t.Fatalf("a coordinator refused by the lock changed the manifest:\n%s\nwant\n%s", got, want)
	}
	cspec, err := specs[1].CampaignSpec()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := results.RunGrid(&core.Engine{}, again, []core.CampaignSpec{cspec}); err == nil ||
		!strings.Contains(err.Error(), "another process") {
		t.Fatalf("a local grid must be refused by the lock, got %v", err)
	}
	if got := storeBytes(t, dir)["manifest.json"]; !bytes.Equal(got, want) {
		t.Fatalf("a grid refused by the lock changed the manifest:\n%s\nwant\n%s", got, want)
	}
}

// TestIngestChecksHeaderWithoutBuilding serves a spec that validates but
// cannot be built (a Nyx edge of 12 seeds no halos): the coordinator must
// check the worker's header against the spec's static identity alone, so
// lease, header, records and completion all succeed.
func TestIngestChecksHeaderWithoutBuilding(t *testing.T) {
	const runs = 3
	ws := experiments.WireSpec{Cell: "nyx", Model: "bit-flip", Runs: runs, Seed: 5, NyxN: 12}
	if _, err := ws.CampaignSpec(); err == nil || !strings.Contains(err.Error(), "no halos") {
		t.Fatalf("the probe spec must fail to build, got %v", err)
	}
	man, err := ManifestFor([]experiments.WireSpec{ws})
	if err != nil {
		t.Fatal(err)
	}
	st, err := results.Create(t.TempDir(), man)
	if err != nil {
		t.Fatal(err)
	}
	coord, err := NewCoordinator(st, []experiments.WireSpec{ws}, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	g, ok, _, err := coord.Lease("a")
	if err != nil || !ok {
		t.Fatalf("lease: ok=%v err=%v", ok, err)
	}
	h := results.NewHeader(core.CampaignMeta{
		Workload:     "nyx",
		Signature:    core.Config{Model: core.BitFlip}.Signature(),
		ProfileCount: 5,
		Runs:         runs,
		Seed:         5,
	})
	recs := make([]results.Record, runs)
	for i := range recs {
		recs[i] = results.Record{Index: i, Target: int64(i), Outcome: "benign"}
	}
	if err := coord.Ingest(g.LeaseID, &h, recs); err != nil {
		t.Fatalf("ingest: %v", err)
	}
	if err := coord.Complete(g.LeaseID); err != nil {
		t.Fatalf("complete: %v", err)
	}
	if !coord.Done() {
		t.Fatal("grid not done after its only spec completed")
	}
}

// NewCoordinator must refuse a spec no worker could run, instead of
// leasing it out to fail on every worker in turn.
func TestNewCoordinatorRefusesUnbuildableSpecs(t *testing.T) {
	for _, tc := range []struct {
		ws   experiments.WireSpec
		want string
	}{
		{experiments.WireSpec{Cell: "nyxx", Model: "bit-flip", Runs: 4, Seed: 1}, "unknown cell"},
		{experiments.WireSpec{Cell: "nyx", Model: "bit-flip", Runs: 4, Seed: 1, NyxN: -1}, "nyx_n"},
		{experiments.WireSpec{Cell: "nyx", Model: "bit-flip", Runs: 4, Seed: 1, NyxN: 4}, "nyx_n"},
	} {
		st, err := results.Create(t.TempDir(), results.Manifest{Seed: 1, Runs: 4})
		if err != nil {
			t.Fatal(err)
		}
		coord, err := NewCoordinator(st, []experiments.WireSpec{tc.ws}, time.Minute)
		if err == nil {
			coord.Close()
		}
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("NewCoordinator(%+v): got %v, want an error containing %q", tc.ws, err, tc.want)
		}
	}
}
