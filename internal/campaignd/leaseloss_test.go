package campaignd

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ffis/internal/classify"
	"ffis/internal/core"
	"ffis/internal/experiments"
	"ffis/internal/results"
	"ffis/internal/vfs"
)

// TestWorkerLeaseLossStopsAtNextRecord revokes a worker's lease mid-spec:
// while some of its runs are held, the coordinator's clock moves past the
// lease TTL, so the worker's next heartbeat is refused. The held runs then
// finish, and the worker's sink refuses the next record: the campaign stops
// short of its budget, posts no record under the lost lease, and
// Worker.Run logs the loss and takes its next lease, which re-runs the
// spec from the prefix the coordinator holds. The final store must be
// byte-identical to a local RunGrid store, at jobs 1 and 4.
func TestWorkerLeaseLossStopsAtNextRecord(t *testing.T) {
	const runs, seed, free = 40, uint64(11), 3
	for _, jobs := range []int{1, 4} {
		t.Run(fmt.Sprintf("jobs=%d", jobs), func(t *testing.T) {
			ws := experiments.WireSpec{Cell: "MT1", Model: "bit-flip", Runs: runs, Seed: seed}.Normalized()
			specs := []experiments.WireSpec{ws}
			man, err := ManifestFor(specs)
			if err != nil {
				t.Fatal(err)
			}

			refDir := t.TempDir()
			refStore, err := results.Create(refDir, man)
			if err != nil {
				t.Fatal(err)
			}
			cspec, err := ws.CampaignSpec()
			if err != nil {
				t.Fatal(err)
			}
			if grid, err := results.RunGrid(&core.Engine{}, refStore, []core.CampaignSpec{cspec}); err != nil || grid[0].Err != nil {
				t.Fatalf("reference grid: %v / %v", err, grid[0].Err)
			}

			// The coordinator's clock moves only when the test moves it,
			// so no lease lapses but the one the test revokes.
			outDir := t.TempDir()
			st, err := results.Create(outDir, man)
			if err != nil {
				t.Fatal(err)
			}
			coord, err := NewCoordinator(st, specs, time.Minute)
			if err != nil {
				t.Fatal(err)
			}
			defer coord.Close()
			var clock atomic.Int64
			clock.Store(time.Now().UnixNano())
			coord.now = func() time.Time { return time.Unix(0, clock.Load()) }
			srv := httptest.NewServer(coord.Handler())
			defer srv.Close()

			// The worker's engine holds the spec's workload with every
			// injection run after the first `free` waiting on release.
			eng := &core.Engine{Jobs: jobs}
			var started atomic.Int64
			gated, release := make(chan struct{}), make(chan struct{})
			closeGated, closeRelease := sync.OnceFunc(func() { close(gated) }), sync.OnceFunc(func() { close(release) })
			defer closeRelease()
			if _, err := eng.Workload(ws.WorldKey(), func() (core.Workload, error) {
				w, err := ws.Workload()
				if err != nil || w.Worker == nil {
					return w, fmt.Errorf("MT1 workload without Worker pairs (%v)", err)
				}
				pair := w.Worker
				w.Worker = func() (func(vfs.FS) error, func(vfs.FS, error) classify.Outcome) {
					run, cls := pair()
					return func(fs vfs.FS) error {
						if started.Add(1) > free {
							closeGated()
							<-release
						}
						return run(fs)
					}, cls
				}
				return w, nil
			}); err != nil {
				t.Fatal(err)
			}

			var (
				logMu   sync.Mutex
				logs    []string
				atLoss  = int64(-1)
				tr      = &watchTransport{refused: make(chan struct{}), posted: map[string]int{}}
				workErr = make(chan error, 1)
			)
			w := &Worker{
				ID: "w", Coordinator: srv.URL, Client: &http.Client{Transport: tr},
				Engine: eng, Poll: 5 * time.Millisecond, Heartbeat: 5 * time.Millisecond,
				Log: func(format string, args ...any) {
					line := fmt.Sprintf(format, args...)
					logMu.Lock()
					defer logMu.Unlock()
					if strings.Contains(line, "lost lease") && atLoss < 0 {
						atLoss = started.Load()
					}
					logs = append(logs, line)
				},
			}
			go func() { workErr <- w.Run(context.Background()) }()

			// Revoke once a run is held mid-spec; release the held runs
			// once the worker's heartbeat has been refused.
			select {
			case <-gated:
			case <-time.After(10 * time.Second):
				t.Fatalf("no run reached the gate (%d started)", started.Load())
			}
			clock.Add(int64(2 * time.Minute))
			select {
			case <-tr.refused:
			case <-time.After(10 * time.Second):
				t.Fatal("the worker's heartbeat was never refused")
			}
			closeRelease()
			select {
			case err := <-workErr:
				if err != nil {
					t.Fatalf("worker: %v", err)
				}
			case <-time.After(60 * time.Second):
				t.Fatal("worker did not finish the grid")
			}

			logMu.Lock()
			defer logMu.Unlock()
			lost, next := -1, -1
			for i, line := range logs {
				switch {
				case lost < 0 && strings.Contains(line, "lost lease lease-1 "):
					lost = i
				case lost >= 0 && next < 0 && strings.Contains(line, fmt.Sprintf("leased %q runs [0,%d)", ws.Key, runs)):
					next = i
				}
			}
			if lost < 0 || next < 0 {
				t.Fatalf("want the loss of lease-1 logged, then the spec leased again from 0; log:\n%s", strings.Join(logs, "\n"))
			}
			if atLoss >= runs {
				t.Fatalf("the lost lease's campaign ran %d of %d runs: it did not stop at its next record", atLoss, runs)
			}
			tr.mu.Lock()
			postedLost := tr.posted["lease-1"]
			tr.mu.Unlock()
			if postedLost != 0 {
				t.Fatalf("the worker posted %d records under the lost lease", postedLost)
			}
			if m := coord.Metrics(); m.RunsIngested != runs || m.LeasesExpired != 1 {
				t.Fatalf("coordinator ingested %d records over %d expired leases, want %d over 1", m.RunsIngested, m.LeasesExpired, runs)
			}
			want, got := storeBytes(t, refDir), storeBytes(t, outDir)
			if len(want) != len(got) {
				t.Fatalf("store file sets differ: reference %d files, distributed %d", len(want), len(got))
			}
			for rel, wb := range want {
				if !bytes.Equal(wb, got[rel]) {
					t.Errorf("%s differs between the local and the distributed store", rel)
				}
			}
		})
	}
}

// watchTransport forwards a worker's requests, counts the records it posts
// per lease, and closes refused at the first heartbeat answered 410.
type watchTransport struct {
	refused chan struct{}
	once    sync.Once
	mu      sync.Mutex
	posted  map[string]int
}

func (tr *watchTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	body, err := io.ReadAll(req.Body)
	req.Body.Close()
	if err != nil {
		return nil, err
	}
	req.Body = io.NopCloser(bytes.NewReader(body))
	if req.URL.Path == "/records" {
		var rr RecordsRequest
		if err := json.Unmarshal(body, &rr); err != nil {
			return nil, err
		}
		tr.mu.Lock()
		tr.posted[rr.LeaseID] += len(rr.Records)
		tr.mu.Unlock()
	}
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err == nil && req.URL.Path == "/heartbeat" && resp.StatusCode == http.StatusGone {
		tr.once.Do(func() { close(tr.refused) })
	}
	return resp, err
}
