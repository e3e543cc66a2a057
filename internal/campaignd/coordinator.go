// Package campaignd is the distributed campaign service: a coordinator
// that decomposes a grid of campaign specs into per-spec work leases and a
// worker that executes leases against the local engine, streaming records
// back over HTTP. The coordinator owns the results store; workers own
// compute and nothing else.
//
// The protocol leans entirely on the determinism the store already
// guarantees: a run's record is a pure function of (spec, seed, index), a
// spec's record file is always an in-order prefix, and resume starts at
// the first missing index. A lease is therefore just "run indices [start,
// runs) of spec K"; a worker that dies mid-lease leaves the coordinator
// holding a valid prefix, and the re-issued lease starts where the prefix
// ends. No replicated state, no fencing tokens beyond the lease id, no
// reconciliation: byte-identity of the final store with a single-machine
// run is the correctness criterion, and CI asserts it with a worker
// killed mid-spec.
package campaignd

import (
	"fmt"
	"sync"
	"time"

	"ffis/internal/experiments"
	"ffis/internal/results"
)

// DefaultLeaseTTL is how long a lease stays valid without a heartbeat.
const DefaultLeaseTTL = time.Minute

// Lease state machine per spec: pending -> leased -> (complete | expired
// -> pending again). A spec whose record file finalizes is done forever.
type specState struct {
	ws    experiments.WireSpec
	sink  *results.SpecSink // open while leased; nil between leases
	lease *lease
	done  bool
	// resumeAt remembers how much of the spec was persisted when its last
	// lease lapsed, so Progress can report it while no sink is open.
	resumeAt int
}

type lease struct {
	id      string
	worker  string
	expires time.Time
}

// Coordinator decomposes a spec grid into leases and ingests the record
// streams workers send back. All methods are safe for concurrent use; the
// HTTP layer in server.go is a thin JSON shim over them.
type Coordinator struct {
	store  *results.Store
	unlock func()
	ttl    time.Duration
	now    func() time.Time

	// AuthToken, when non-empty, makes Handler refuse any request that
	// does not carry "Authorization: Bearer <token>" with 401 — the
	// shared-secret first slice of endpoint hardening. Set it before the
	// handler serves.
	AuthToken string

	mu     sync.Mutex
	order  []string
	states map[string]*specState
	nLease int

	// Operational counters behind GET /metrics. runsIngested counts
	// records accepted into the store; workerStats holds each worker's
	// latest heartbeat, which carries its cumulative per-stage report.
	started         time.Time
	runsIngested    int64
	leasesExpired   int
	leasesCompleted int
	workerStats     map[string]HeartbeatRequest
}

// ManifestFor derives the store manifest a spec grid requires: one seed
// and one run budget (mixed grids are refused, mirroring the single
// -seed/-runs flags of a local grid). Each spec's world enters the manifest
// when NewCoordinator registers the grid.
func ManifestFor(specs []experiments.WireSpec) (results.Manifest, error) {
	if len(specs) == 0 {
		return results.Manifest{}, fmt.Errorf("campaignd: no specs")
	}
	man := results.Manifest{Seed: specs[0].Seed, Runs: specs[0].Runs}
	for _, ws := range specs {
		if ws.Seed != man.Seed || ws.Runs != man.Runs {
			return results.Manifest{}, fmt.Errorf("campaignd: specs disagree on campaign parameters (seed %d vs %d, runs %d vs %d); one coordinator serves one campaign",
				man.Seed, ws.Seed, man.Runs, ws.Runs)
		}
	}
	return man, nil
}

// NewCoordinator adopts a spec grid into the store (results.Store.Adopt)
// and prepares to lease it out. Every spec must share the store's seed and
// run budget — the manifest records one of each, exactly as a
// single-machine grid would — and a finalized spec is done only when its
// stored header is this spec's campaign. The store's inter-process lock is
// held until Close: one coordinator per store, and no local RunGrid can
// race it.
func NewCoordinator(st *results.Store, specs []experiments.WireSpec, ttl time.Duration) (*Coordinator, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("campaignd: no specs to serve")
	}
	if ttl <= 0 {
		ttl = DefaultLeaseTTL
	}
	grid := make([]results.GridSpec, len(specs))
	keys := make([]string, len(specs))
	states := make(map[string]*specState, len(specs))
	for i := range specs {
		ws := specs[i].Normalized()
		meta, err := ws.Meta()
		if err != nil {
			return nil, err
		}
		grid[i] = results.GridSpec{Key: ws.Key, World: ws.WorldKey(), Meta: meta}
		keys[i] = ws.Key
		states[ws.Key] = &specState{ws: ws}
	}
	final, unlock, err := st.Adopt(grid)
	if err != nil {
		return nil, err
	}
	for i, k := range keys {
		states[k].done = final[i] != nil
	}
	c := &Coordinator{
		store:       st,
		unlock:      unlock,
		ttl:         ttl,
		now:         time.Now,
		order:       keys,
		states:      states,
		workerStats: map[string]HeartbeatRequest{},
	}
	c.started = c.now()
	return c, nil
}

// Close releases the store lock and abandons open leases; partial record
// files stay on disk, resumable by the next coordinator over this store.
func (c *Coordinator) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	var first error
	for _, st := range c.states {
		if st.sink != nil {
			if err := st.sink.Close(); err != nil && first == nil {
				first = err
			}
			st.sink = nil
			st.lease = nil
		}
	}
	if c.unlock != nil {
		c.unlock()
		c.unlock = nil
	}
	return first
}

// expireLocked lazily revokes lapsed leases: the sink closes (keeping the
// in-order partial prefix), and the spec returns to the pending pool with
// its resume point advanced to everything the dead worker delivered.
// Called under c.mu at the head of every state-changing entry point, so
// expiry needs no background goroutine and tests need no clock control.
func (c *Coordinator) expireLocked() {
	now := c.now()
	for _, st := range c.states {
		if st.lease != nil && now.After(st.lease.expires) {
			// A leased spec always has its sink open.
			st.resumeAt = st.sink.Persisted()
			st.sink.Close()
			st.sink, st.lease = nil, nil
			c.leasesExpired++
		}
	}
}

// Lease hands the caller the next pending spec, opening (or recovering)
// its record stream to find the resume index. ok is false when nothing is
// leasable right now; done reports whether the whole grid has finalized —
// the worker's signal to exit rather than poll again.
func (c *Coordinator) Lease(worker string) (l LeaseGrant, ok, done bool, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.expireLocked()
	done = true
	for _, key := range c.order {
		st := c.states[key]
		if st.done {
			continue
		}
		done = false
		if st.lease != nil {
			continue
		}
		if st.sink == nil {
			sink, err := c.store.SpecSink(key, st.ws.Runs)
			if err != nil {
				return LeaseGrant{}, false, false, err
			}
			st.sink = sink
		}
		c.nLease++
		st.lease = &lease{
			id:      fmt.Sprintf("lease-%d", c.nLease),
			worker:  worker,
			expires: c.now().Add(c.ttl),
		}
		return LeaseGrant{
			LeaseID:   st.lease.id,
			Spec:      st.ws,
			Start:     st.sink.Persisted(),
			TTLMillis: c.ttl.Milliseconds(),
		}, true, false, nil
	}
	return LeaseGrant{}, false, done, nil
}

// findLease resolves a lease id to its spec state, under c.mu. A revoked
// or unknown lease returns nil: the caller translates that to "gone", the
// worker's cue to abandon the spec (someone else owns it now).
func (c *Coordinator) findLease(id string) *specState {
	for _, st := range c.states {
		if st.lease != nil && st.lease.id == id {
			return st
		}
	}
	return nil
}

// Heartbeat extends a lease; the request's optional cumulative stage
// aggregates (derived worker-side from the run-event stream) refresh that
// worker's row of the /metrics view. false means the lease has been
// revoked (or never existed): the worker must stop computing the spec.
func (c *Coordinator) Heartbeat(req HeartbeatRequest) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.expireLocked()
	if req.Worker != "" {
		c.workerStats[req.Worker] = req
	}
	st := c.findLease(req.LeaseID)
	if st == nil {
		return false
	}
	st.lease.expires = c.now().Add(c.ttl)
	return true
}

// Ingest validates and persists a batch of records from a live lease.
// The first batch must carry the campaign header, which is checked both
// against the wire spec's static identity (HeaderMatches on Meta — the
// worker ran the campaign we asked for; nothing is built here) and against
// any recovered header from a previous worker's prefix
// (SpecSink.BeginHeader — profile drift across workers is refused).
// Records must arrive in strict index order starting at the lease's
// resume point. A batch is all or nothing: every index is checked before
// the header or any record is written, so a refused batch leaves the
// stored stream as it was.
func (c *Coordinator) Ingest(leaseID string, header *results.Header, recs []results.Record) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.expireLocked()
	st := c.findLease(leaseID)
	if st == nil {
		return errLeaseGone
	}
	for k, rec := range recs {
		switch want := st.sink.Persisted() + k; {
		case rec.Index < 0 || rec.Index >= st.ws.Runs:
			return fmt.Errorf("campaignd: spec %q: record index %d outside campaign of %d runs", st.ws.Key, rec.Index, st.ws.Runs)
		case rec.Index != want:
			return fmt.Errorf("campaignd: spec %q: record %d out of order (expected %d)", st.ws.Key, rec.Index, want)
		}
	}
	if header != nil {
		meta, _ := st.ws.Meta() // NewCoordinator validated the spec
		if err := results.HeaderMatches(*header, meta); err != nil {
			return fmt.Errorf("campaignd: spec %q: %w", st.ws.Key, err)
		}
		// On a re-leased spec the sink recovered the previous worker's
		// header; BeginHeader compares against it, so a successor whose
		// world profiled differently is refused here.
		if err := st.sink.BeginHeader(*header); err != nil {
			return err
		}
	} else if st.sink.Header() == nil {
		return fmt.Errorf("campaignd: spec %q: first record batch must carry the campaign header", st.ws.Key)
	}
	for _, rec := range recs {
		if err := st.sink.Append(rec); err != nil {
			return err
		}
		c.runsIngested++
	}
	st.lease.expires = c.now().Add(c.ttl)
	return nil
}

// Complete finalizes a spec whose lease delivered every remaining run:
// the partial renames atomically into its final form, the same durable
// completion marker a local RunGrid writes. SpecSink.Finalize refuses a
// spec with runs still missing.
func (c *Coordinator) Complete(leaseID string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.expireLocked()
	st := c.findLease(leaseID)
	if st == nil {
		return errLeaseGone
	}
	if err := st.sink.Finalize(0); err != nil {
		return err
	}
	st.sink = nil
	st.lease = nil
	st.done = true
	c.leasesCompleted++
	return nil
}

// errLeaseGone marks requests against a lease the coordinator no longer
// honors; the HTTP layer renders it as 410 Gone.
var errLeaseGone = fmt.Errorf("campaignd: lease expired or unknown")

// SpecProgress is one row of the live grid view.
type SpecProgress struct {
	Key       string `json:"key"`
	Runs      int    `json:"runs"`
	Persisted int    `json:"persisted"`
	State     string `json:"state"` // pending | leased | done
	Worker    string `json:"worker,omitempty"`
}

// Progress reports the grid's live state, in submission order.
func (c *Coordinator) Progress() []SpecProgress {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.expireLocked()
	out := make([]SpecProgress, 0, len(c.order))
	for _, key := range c.order {
		st := c.states[key]
		p := SpecProgress{Key: key, Runs: st.ws.Runs}
		switch {
		case st.done:
			p.State, p.Persisted = "done", st.ws.Runs
		case st.lease != nil:
			p.State, p.Persisted, p.Worker = "leased", st.sink.Persisted(), st.lease.worker
		default:
			p.State, p.Persisted = "pending", st.resumeAt
		}
		out = append(out, p)
	}
	return out
}

// Metrics is the coordinator's operational snapshot (GET /metrics):
// ingest throughput, grid state, lease churn, and the per-run stage
// latency averages aggregated from every worker's event-stream reports.
type Metrics struct {
	UptimeMillis int64   `json:"uptime_ms"`
	RunsIngested int64   `json:"runs_ingested"`
	RunsPerSec   float64 `json:"runs_per_sec"`

	SpecsDone    int `json:"specs_done"`
	SpecsLeased  int `json:"specs_leased"`
	SpecsPending int `json:"specs_pending"`

	LeasesGranted   int `json:"leases_granted"`
	LeasesExpired   int `json:"leases_expired"`
	LeasesCompleted int `json:"leases_completed"`

	// Workers counts the workers that have reported stats on a heartbeat.
	// RunsReused counts their runs that copied an earlier draw-free record
	// instead of executing; the averages below are per executed run
	// (completed minus reused) across all of them.
	Workers           int     `json:"workers"`
	RunsReused        int64   `json:"runs_reused"`
	AvgCloneMicros    float64 `json:"avg_clone_us,omitempty"`
	AvgWorkloadMillis float64 `json:"avg_workload_ms,omitempty"`
	AvgClassifyMicros float64 `json:"avg_classify_us,omitempty"`
	AvgSimMillis      float64 `json:"avg_sim_ms,omitempty"`
}

// Metrics renders the live operational view.
func (c *Coordinator) Metrics() Metrics {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.expireLocked()
	m := Metrics{
		RunsIngested:    c.runsIngested,
		LeasesGranted:   c.nLease,
		LeasesExpired:   c.leasesExpired,
		LeasesCompleted: c.leasesCompleted,
		Workers:         len(c.workerStats),
	}
	for _, st := range c.states {
		switch {
		case st.done:
			m.SpecsDone++
		case st.lease != nil:
			m.SpecsLeased++
		default:
			m.SpecsPending++
		}
	}
	if elapsed := c.now().Sub(c.started); elapsed > 0 {
		m.UptimeMillis = elapsed.Milliseconds()
		m.RunsPerSec = float64(c.runsIngested) / elapsed.Seconds()
	}
	var total HeartbeatRequest
	for _, ws := range c.workerStats {
		total.Done += ws.Done
		total.Reused += ws.Reused
		total.CloneMicros += ws.CloneMicros
		total.WorkloadNanos += ws.WorkloadNanos
		total.ClassifyMicros += ws.ClassifyMicros
		total.SimNanos += ws.SimNanos
	}
	m.RunsReused = total.Reused
	if executed := total.Done - total.Reused; executed > 0 {
		n := float64(executed)
		m.AvgCloneMicros = float64(total.CloneMicros) / n
		m.AvgWorkloadMillis = float64(total.WorkloadNanos) / n / 1e6
		m.AvgClassifyMicros = float64(total.ClassifyMicros) / n
		m.AvgSimMillis = float64(total.SimNanos) / n / 1e6
	}
	return m
}

// Done reports whether every spec has finalized.
func (c *Coordinator) Done() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, st := range c.states {
		if !st.done {
			return false
		}
	}
	return true
}

// Report renders the store's current contents through results.Report —
// the live submit-and-watch view; partially complete specs render from
// their in-order prefixes.
func (c *Coordinator) Report(format string) (string, error) {
	return results.Report(c.store, format)
}
