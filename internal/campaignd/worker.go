package campaignd

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync/atomic"
	"time"

	"ffis/internal/classify"
	"ffis/internal/core"
	"ffis/internal/results"
)

// Worker executes leases against the local campaign engine and streams
// finished records back to the coordinator. One worker process serves
// many leases in sequence; the engine persists across them, so two leases
// over the same world (same cell, different fault models) share one built
// workload, one Setup and one profile pass exactly like cells of a local
// grid.
type Worker struct {
	// ID names the worker in leases and progress views.
	ID string
	// Coordinator is the coordinator's base URL, e.g. "http://host:8080".
	Coordinator string
	// Client is the HTTP client; nil uses http.DefaultClient.
	Client *http.Client
	// Engine runs the campaigns; nil builds a private one from Jobs.
	Engine *core.Engine
	// Jobs bounds engine parallelism when Engine is nil (0 = GOMAXPROCS).
	Jobs int
	// Poll is how long to wait when the coordinator has nothing leasable
	// (default 500ms).
	Poll time.Duration
	// Heartbeat is the lease-renewal interval; 0 derives TTL/3 from each
	// grant.
	Heartbeat time.Duration
	// Batch caps records per POST /records (default 64).
	Batch int
	// Token is the coordinator's shared bearer secret; requests carry it
	// as "Authorization: Bearer <token>" when set.
	Token string
	// Prefetch fetches lease N+1 while spec N is still executing, hiding
	// lease latency on short specs. The prefetched lease is heartbeated
	// until adopted; if the worker dies first, it simply expires and
	// re-queues — record bytes are unaffected either way.
	Prefetch bool
	// Events, when non-nil, is the bus the worker's engine publishes the
	// run-lifecycle stream to (the CLI subscribes its renderer and trace
	// writer there). Nil builds a private bus: the worker always consumes
	// the stream itself to derive heartbeat progress.
	Events *core.EventBus
	// Log, when set, receives progress lines.
	Log func(format string, args ...any)

	// stats accumulates this worker's RunDone aggregates from its event
	// subscription; heartbeats report them cumulatively to /metrics.
	stats struct {
		done, reused, cloneUS, workNS, classifyUS, simNS atomic.Int64
	}
}

func (w *Worker) logf(format string, args ...any) {
	if w.Log != nil {
		w.Log(format, args...)
	}
}

func (w *Worker) engine() *core.Engine {
	if w.Engine == nil {
		w.Engine = &core.Engine{Jobs: w.Jobs}
	}
	return w.Engine
}

// consumeEvent is the worker's own subscription to the run-event stream:
// RunDone aggregates feed the heartbeat's /metrics report. A reused run
// counts as done and as reused; the stage sums cover executed runs only.
func (w *Worker) consumeEvent(ev core.Event) {
	switch ev.Kind {
	case core.EventRunReused:
		w.stats.done.Add(1)
		w.stats.reused.Add(1)
		return
	case core.EventRunDone:
		w.stats.done.Add(1)
	default:
		return
	}
	w.stats.cloneUS.Add(ev.CloneMicros)
	w.stats.workNS.Add(ev.WorkloadNanos)
	w.stats.classifyUS.Add(ev.ClassifyMicros)
	w.stats.simNS.Add(ev.SimNanos)
}

// heartbeatReq builds a lease renewal carrying the worker's cumulative
// event-stream aggregates.
func (w *Worker) heartbeatReq(leaseID string) HeartbeatRequest {
	return HeartbeatRequest{
		LeaseID:        leaseID,
		Worker:         w.ID,
		Done:           w.stats.done.Load(),
		Reused:         w.stats.reused.Load(),
		CloneMicros:    w.stats.cloneUS.Load(),
		WorkloadNanos:  w.stats.workNS.Load(),
		ClassifyMicros: w.stats.classifyUS.Load(),
		SimNanos:       w.stats.simNS.Load(),
	}
}

func (w *Worker) client() *http.Client {
	if w.Client != nil {
		return w.Client
	}
	return http.DefaultClient
}

func (w *Worker) poll() time.Duration {
	if w.Poll > 0 {
		return w.Poll
	}
	return 500 * time.Millisecond
}

// Run leases and executes specs until the coordinator reports the grid
// done (returns nil), the context cancels, or the worker hits a fatal
// error. A lease lost to expiry (heartbeat lapse, slow network) is not
// fatal: the worker abandons it and asks for the next one, trusting the
// coordinator to have re-queued the remainder.
func (w *Worker) Run(ctx context.Context) error {
	// The worker always consumes the run-event stream itself (heartbeat
	// progress); a CLI-provided bus just adds its own subscribers
	// alongside.
	bus := w.Events
	if bus == nil {
		bus = core.NewEventBus()
		defer bus.Close()
	}
	bus.Subscribe(4096, w.consumeEvent)
	if e := w.engine(); e.Events == nil {
		e.Events = bus
	}
	var pending *prefetchedLease
	defer func() {
		// A prefetched lease the worker never got to: stop its keep-alive
		// so the coordinator re-queues the spec after one TTL.
		if pending != nil {
			pending.take()
		}
	}()
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		var grant *LeaseGrant
		var done bool
		if pending != nil {
			grant = pending.take()
			pending = nil
		}
		if grant == nil {
			var resp LeaseResponse
			status, err := w.post("/lease", LeaseRequest{Worker: w.ID}, &resp)
			if err != nil {
				return fmt.Errorf("campaignd: worker %s: lease: %w", w.ID, err)
			}
			if status != http.StatusOK {
				return fmt.Errorf("campaignd: worker %s: lease: HTTP %d", w.ID, status)
			}
			done, grant = resp.Done, resp.Grant
		}
		switch {
		case done:
			w.logf("worker %s: grid complete", w.ID)
			return nil
		case grant == nil:
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(w.poll()):
			}
		default:
			if w.Prefetch {
				pending = w.startPrefetch(ctx)
			}
			err := w.execute(ctx, *grant)
			switch {
			case err == nil:
			case errors.Is(err, errLeaseLost), ctx.Err() != nil && errors.Is(err, ctx.Err()):
				w.logf("worker %s: lost lease %s on %q, moving on", w.ID, grant.LeaseID, grant.Spec.Key)
			default:
				return err
			}
		}
	}
}

// prefetchedLease is a lease fetched ahead of need: while spec N still
// computes, a goroutine asks the coordinator for spec N+1 and keeps the
// grant alive with the same heartbeat loop as a running lease until the
// main loop adopts or abandons it. Correctness never depends on it: an
// abandoned prefetch simply expires and re-queues, and the records of the
// next spec are the same bytes whether its lease was prefetched or polled
// for.
type prefetchedLease struct {
	grant   *LeaseGrant // written before done closes
	revoked atomic.Bool
	stop    context.CancelFunc
	done    chan struct{}
}

func (w *Worker) startPrefetch(ctx context.Context) *prefetchedLease {
	ctx, stop := context.WithCancel(ctx)
	p := &prefetchedLease{stop: stop, done: make(chan struct{})}
	go func() {
		defer close(p.done)
		var resp LeaseResponse
		status, err := w.post("/lease", LeaseRequest{Worker: w.ID}, &resp)
		if err != nil || status != http.StatusOK || resp.Grant == nil {
			// Nothing to prefetch (all leased out, grid done, coordinator
			// unreachable): the main loop proceeds exactly as without
			// prefetch.
			return
		}
		p.grant = resp.Grant
		w.heartbeatLoop(ctx, *resp.Grant, &p.revoked)
	}()
	return p
}

// take stops the keep-alive and hands over the grant — nil when the
// prefetch came back empty or the lease lapsed in the meantime.
func (p *prefetchedLease) take() *LeaseGrant {
	p.stop()
	<-p.done
	if p.revoked.Load() {
		return nil
	}
	return p.grant
}

// errLeaseLost reports a 410 from the coordinator mid-lease: the spec has
// been re-queued and belongs to someone else now.
var errLeaseLost = errors.New("campaignd: lease revoked by coordinator")

// execute runs one lease: take the spec's workload from the engine
// (building it only the first time its world is seen), run indices
// [Start, Runs) with records streaming to the coordinator, then finalize.
// A background heartbeat keeps the lease alive; once it fails, or ctx
// ends, the sink refuses the next record, which stops the campaign's
// dispatch: compute halts as soon as the work stops being ours.
func (w *Worker) execute(ctx context.Context, grant LeaseGrant) error {
	wl, err := w.engine().Workload(grant.Spec.WorldKey(), grant.Spec.Workload)
	if err != nil {
		return fmt.Errorf("campaignd: worker %s: %w", w.ID, err)
	}
	spec := grant.Spec.CampaignSpecOn(wl)
	w.logf("worker %s: leased %q runs [%d,%d)", w.ID, grant.Spec.Key, grant.Start, grant.Spec.Runs)

	var revoked atomic.Bool
	hbCtx, stopHB := context.WithCancel(ctx)
	defer stopHB()
	go w.heartbeatLoop(hbCtx, grant, &revoked)

	sink := &remoteSink{w: w, ctx: ctx, revoked: &revoked, leaseID: grant.LeaseID, start: grant.Start}
	spec.Config.Sink = sink

	res := w.engine().Run([]core.CampaignSpec{spec})[0]
	stopHB()
	if res.Err != nil {
		return fmt.Errorf("campaignd: worker %s: spec %q: %w", w.ID, grant.Spec.Key, res.Err)
	}
	if err := sink.flush(); err != nil {
		return fmt.Errorf("campaignd: worker %s: spec %q: %w", w.ID, grant.Spec.Key, err)
	}
	status, err := w.post("/complete", CompleteRequest{LeaseID: grant.LeaseID}, nil)
	if err != nil {
		return fmt.Errorf("campaignd: worker %s: complete %q: %w", w.ID, grant.Spec.Key, err)
	}
	if status == http.StatusGone {
		return errLeaseLost
	}
	if status != http.StatusNoContent {
		return fmt.Errorf("campaignd: worker %s: complete %q: HTTP %d", w.ID, grant.Spec.Key, status)
	}
	w.logf("worker %s: finalized %q", w.ID, grant.Spec.Key)
	return nil
}

// heartbeatLoop renews the lease until cancelled; any refusal or
// transport failure marks the lease revoked, which a running campaign's
// sink observes at its next record and which keeps a prefetched lease
// from being adopted.
func (w *Worker) heartbeatLoop(ctx context.Context, grant LeaseGrant, revoked *atomic.Bool) {
	interval := w.Heartbeat
	if interval <= 0 {
		interval = time.Duration(grant.TTLMillis) * time.Millisecond / 3
		if interval <= 0 {
			interval = time.Second
		}
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			status, err := w.post("/heartbeat", w.heartbeatReq(grant.LeaseID), nil)
			if err != nil || status != http.StatusNoContent {
				revoked.Store(true)
				return
			}
		}
	}
}

// post sends one JSON request; out (when non-nil) decodes a 200 body.
// Non-2xx statuses are returned, not errors — callers map them.
func (w *Worker) post(path string, body, out any) (int, error) {
	raw, err := json.Marshal(body)
	if err != nil {
		return 0, err
	}
	req, err := http.NewRequest(http.MethodPost, w.Coordinator+path, bytes.NewReader(raw))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	if w.Token != "" {
		req.Header.Set("Authorization", "Bearer "+w.Token)
	}
	resp, err := w.client().Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	msg, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(msg, out); err != nil {
			return resp.StatusCode, err
		}
	}
	if resp.StatusCode >= 400 && resp.StatusCode != http.StatusGone {
		return resp.StatusCode, fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
	}
	return resp.StatusCode, nil
}

// remoteSink is the worker-side core.RecordSink: the Engine delivers
// records in index order, and the sink streams them to the coordinator in
// batches, so the wire only ever carries the next piece of the resumable
// prefix. The Engine serializes every sink call and execute flushes only
// after the campaign returns, so the sink needs no lock.
type remoteSink struct {
	w       *Worker
	ctx     context.Context // the worker's; once it ends, Record refuses
	revoked *atomic.Bool    // set by the heartbeat loop when the lease is lost
	leaseID string
	start   int // the lease's resume point; immutable
	batch   []results.Record
	err     error
}

// BeginCampaign posts the campaign header alone as the lease's first
// batch: validation failures (world drift, wrong spec) surface before any
// compute-heavy record streaming starts. A failure here fails the campaign
// before any Record call.
func (s *remoteSink) BeginCampaign(meta core.CampaignMeta) error {
	h := results.NewHeader(meta)
	return s.send(RecordsRequest{LeaseID: s.leaseID, Header: &h})
}

// Resume implements core.RecordSink: the lease covers runs [start, Runs), the
// coordinator already holds the rest. It reports no prior outcomes, so an
// adaptive campaign cannot resume remotely past run 0 (and WireSpec has no
// stopping rule to begin with).
func (s *remoteSink) Resume() (int, []classify.Outcome) { return s.start, nil }

// Record buffers one finished run and ships every batch of batchSize
// records. It refuses the run once the lease is lost (errLeaseLost) or
// the worker's context has ended, which stops the campaign's dispatch.
func (s *remoteSink) Record(rec core.RunRecord) error {
	if s.err != nil {
		return s.err
	}
	if s.revoked.Load() {
		return errLeaseLost
	}
	if err := s.ctx.Err(); err != nil {
		return err
	}
	s.batch = append(s.batch, results.NewRecord(rec))
	if len(s.batch) >= s.batchSize() {
		return s.flush()
	}
	return nil
}

func (s *remoteSink) batchSize() int {
	if s.w.Batch > 0 {
		return s.w.Batch
	}
	return 64
}

// flush posts the buffered records.
func (s *remoteSink) flush() error {
	if s.err != nil {
		return s.err
	}
	if len(s.batch) == 0 {
		return nil
	}
	req := RecordsRequest{LeaseID: s.leaseID, Records: s.batch}
	if err := s.send(req); err != nil {
		s.err = err
		return err
	}
	s.batch = s.batch[:0]
	return nil
}

func (s *remoteSink) send(req RecordsRequest) error {
	status, err := s.w.post("/records", req, nil)
	if err != nil {
		return err
	}
	switch status {
	case http.StatusNoContent:
		return nil
	case http.StatusGone:
		return errLeaseLost
	default:
		return fmt.Errorf("records rejected: HTTP %d", status)
	}
}

var _ core.RecordSink = (*remoteSink)(nil)
