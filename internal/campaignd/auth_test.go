package campaignd

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"ffis/internal/core"
	"ffis/internal/results"
)

// TestBearerTokenGatesEveryRoute proves the shared-secret middleware:
// with AuthToken set, every route answers 401 to missing or wrong
// credentials, a token-carrying worker completes the grid, and /metrics
// reflects the heartbeat-reported stage aggregates afterwards.
func TestBearerTokenGatesEveryRoute(t *testing.T) {
	t.Parallel()
	specs := testGrid([]string{"MT1"}, 4, 99)
	man, err := ManifestFor(specs)
	if err != nil {
		t.Fatal(err)
	}
	st, err := results.Create(t.TempDir(), man)
	if err != nil {
		t.Fatal(err)
	}
	coord, err := NewCoordinator(st, specs, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	coord.AuthToken = "hunter2"
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()

	for _, tc := range []struct {
		name, header string
	}{
		{"missing", ""},
		{"wrong token", "Bearer hunter3"},
		{"wrong scheme", "Basic hunter2"},
		{"wrong length", "Bearer hunter2extra"},
	} {
		for _, route := range []string{"/lease", "/heartbeat", "/records", "/complete", "/progress", "/metrics", "/report"} {
			req, err := http.NewRequest(http.MethodPost, srv.URL+route, strings.NewReader("{}"))
			if err != nil {
				t.Fatal(err)
			}
			if tc.header != "" {
				req.Header.Set("Authorization", tc.header)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusUnauthorized {
				t.Fatalf("%s %s: want 401, got %d", tc.name, route, resp.StatusCode)
			}
		}
	}

	// A worker without the secret is locked out with a clean error...
	bad := &Worker{ID: "intruder", Coordinator: srv.URL, Poll: 10 * time.Millisecond}
	if err := bad.Run(context.Background()); err == nil || !strings.Contains(err.Error(), "401") {
		t.Fatalf("tokenless worker should fail its first lease with a 401, got %v", err)
	}

	// ...and one carrying it runs the grid to completion, prefetch and all.
	w := &Worker{ID: "insider", Coordinator: srv.URL, Poll: 10 * time.Millisecond,
		Heartbeat: 50 * time.Millisecond, Token: "hunter2", Prefetch: true}
	if err := w.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !coord.Done() {
		t.Fatalf("grid not done: %+v", coord.Progress())
	}

	req, err := http.NewRequest(http.MethodGet, srv.URL+"/metrics", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Authorization", "Bearer hunter2")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m Metrics
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	if m.SpecsDone != len(specs) || m.LeasesCompleted != len(specs) {
		t.Fatalf("metrics after a finished grid: %+v", m)
	}
	if m.RunsIngested != int64(len(specs)*4) {
		t.Fatalf("want %d runs ingested, got %d", len(specs)*4, m.RunsIngested)
	}
}

// TestWorkerCountsReusedRunsApart pins the worker side of the reuse
// telemetry: a RunReused event counts as done and as reused and adds
// nothing to the stage sums, which therefore cover executed runs only.
func TestWorkerCountsReusedRunsApart(t *testing.T) {
	w := &Worker{ID: "w"}
	w.consumeEvent(core.Event{Kind: core.EventRunDone, CloneMicros: 10, WorkloadNanos: 20, ClassifyMicros: 30, SimNanos: 40})
	w.consumeEvent(core.Event{Kind: core.EventRunReused, SimNanos: 40})
	w.consumeEvent(core.Event{Kind: core.EventSpecDone})
	got := w.heartbeatReq("L")
	want := HeartbeatRequest{LeaseID: "L", Worker: "w", Done: 2, Reused: 1,
		CloneMicros: 10, WorkloadNanos: 20, ClassifyMicros: 30, SimNanos: 40}
	if got != want {
		t.Fatalf("heartbeat = %+v, want %+v", got, want)
	}
}

// TestMetricsCountsWorkersAndExpiries exercises the coordinator-side
// aggregation directly: heartbeats with stage aggregates show up as
// per-worker averages, and a lapsed lease increments the expiry counter.
func TestMetricsCountsWorkersAndExpiries(t *testing.T) {
	t.Parallel()
	coord, _, clock := coordForOneSpec(t, 8, 7, time.Minute)
	g, ok, _, err := coord.Lease("w1")
	if err != nil || !ok {
		t.Fatalf("lease: ok=%v err=%v", ok, err)
	}
	if !coord.Heartbeat(HeartbeatRequest{
		LeaseID: g.LeaseID, Worker: "w1",
		Done: 6, Reused: 2, CloneMicros: 400, WorkloadNanos: 8_000_000, ClassifyMicros: 40, SimNanos: 4_000_000,
	}) {
		t.Fatal("heartbeat on a live lease refused")
	}
	m := coord.Metrics()
	if m.Workers != 1 || m.LeasesGranted != 1 || m.RunsReused != 2 {
		t.Fatalf("want 1 worker, 1 lease granted and 2 runs reused, got %+v", m)
	}
	// Averages are per executed run: 6 done minus 2 reused.
	if m.AvgCloneMicros != 100 || m.AvgWorkloadMillis != 2 {
		t.Fatalf("stage averages: want clone 100us, workload 2ms, got %+v", m)
	}

	// TTL lapses without a renewal: the next lease attempt expires it.
	*clock = clock.Add(2 * time.Minute)
	if _, _, _, err := coord.Lease("w2"); err != nil {
		t.Fatal(err)
	}
	if m := coord.Metrics(); m.LeasesExpired != 1 {
		t.Fatalf("want 1 expired lease, got %+v", m)
	}
}
