package core

import (
	"sync"
	"sync/atomic"

	"ffis/internal/classify"
)

// EventKind names one variant of the runner's structured event stream.
type EventKind string

const (
	// EventSpecStart opens a campaign's stream: the world is snapshotted,
	// profiling succeeded, and injection runs are about to dispatch.
	EventSpecStart EventKind = "spec_start"
	// EventRunDone reports one successfully finished injection run with
	// its per-stage wall-clock costs. High-volume (one per run) and, with
	// RunReused, the only kind a saturated subscriber queue may drop.
	EventRunDone EventKind = "run_done"
	// EventRunReused stands in for RunDone when a run's record was copied
	// from an earlier draw-free run of the same target (see Engine.runSpec):
	// the same identity and counts, but no stage timings, since the run
	// executed nothing. Which runs are reused depends on scheduling, so
	// the kind is telemetry like the timings.
	EventRunReused EventKind = "run_reused"
	// EventBarrier marks an adaptive dispatch barrier: the prefix
	// [0, Barrier) has drained completely and its tally is about to be
	// evaluated.
	EventBarrier EventKind = "barrier"
	// EventStopDecision reports the stopping rule's verdict at a barrier.
	EventStopDecision EventKind = "stop_decision"
	// EventSpecDone closes a campaign's stream, carrying its result or
	// terminal error. Exactly one per campaign.
	EventSpecDone EventKind = "spec_done"
)

// Event is one item of the unified run-lifecycle stream every execution
// path (Engine grids, persisted grids, distributed workers)
// emits through Engine.runSpec. Fields beyond Kind and Key are populated per
// kind; per-stage timings live here and only here — RunRecord stays a
// pure function of (spec, seed, index) so persisted record bytes never
// depend on wall-clock noise.
type Event struct {
	Kind EventKind
	// Key names the campaign: CampaignSpec.Key, or the workload name when
	// the spec has no Key.
	Key string

	// Done and Total count completed vs scheduled executed runs (Runs
	// minus the sink's resume point). SpecStart carries Total; RunDone carries
	// both; SpecDone reports the final counts (equal at completion, and
	// both equal to the executed-run count after an adaptive early stop).
	Done, Total int
	// Runs is the configured run budget (SpecStart).
	Runs int
	// ProfileCount is the fault-free dynamic count of the target
	// primitive (SpecStart).
	ProfileCount int64

	// RunDone payload: the deterministic run identity (Index, Target,
	// Outcome, Fired — functions of seed and index alone) plus the
	// per-stage wall-clock costs of this particular execution. RunReused
	// carries the identity and SimNanos (from the copied record) only.
	Index          int
	Target         int64
	Outcome        classify.Outcome
	Fired          bool
	CloneMicros    int64 // world clone
	WorkloadNanos  int64 // armed application run
	ClassifyMicros int64 // artifact classification
	SimNanos       int64 // simulated I/O clock charge (0 without latency-modeled backends)

	// Barrier is the adaptive chunk boundary just drained (Barrier kind);
	// StopIndex and Stopped report the rule's verdict there
	// (StopDecision kind).
	Barrier   int
	StopIndex int
	Stopped   bool

	// SpecDone payload: exactly one of Result (success) or Err.
	Result *CampaignResult
	Err    error
}

// DefaultEventBuffer bounds a subscriber's queue when Subscribe is handed
// a non-positive buffer size.
const DefaultEventBuffer = 1024

// EventBus fans the runner's event stream out to subscribers without ever
// blocking emission. Each subscriber owns a bounded queue drained by a
// dedicated goroutine, so a slow consumer (a stalled -trace writer, a
// terminal behind a slow ssh link) can never stall the run pool.
//
// Drop policy: when a subscriber's queue is full, further RunDone (and
// RunReused) events are dropped for that subscriber and counted on its
// Dropped tally —
// they are per-run telemetry, and the terminal SpecDone event carries the
// complete tally regardless. Lifecycle events (SpecStart, Barrier,
// StopDecision, SpecDone) always queue: their volume is bounded by the
// grid size, not the run count, so they cannot grow the queue without
// bound. Durable record delivery never rides the bus — that is the
// synchronous RecordSink path, which is lossless by construction.
type EventBus struct {
	mu   sync.Mutex
	subs []*Subscription
}

// NewEventBus returns an empty bus. The zero value is NOT usable; buses
// are created where the CLI or worker wires its subscribers.
func NewEventBus() *EventBus { return &EventBus{} }

// Subscription is one subscriber's handle: its drop counter and the
// lifecycle of its drain goroutine.
type Subscription struct {
	fn    func(Event)
	limit int

	mu     sync.Mutex
	cond   *sync.Cond
	queue  []Event
	closed bool
	done   chan struct{}

	dropped atomic.Int64
}

// Subscribe registers fn to receive every subsequent event, delivered in
// publish order on a dedicated goroutine; fn never runs concurrently with
// itself. buffer bounds the pending-event queue (<= 0 selects
// DefaultEventBuffer); see EventBus for what happens when it fills.
func (b *EventBus) Subscribe(buffer int, fn func(Event)) *Subscription {
	if buffer <= 0 {
		buffer = DefaultEventBuffer
	}
	s := &Subscription{fn: fn, limit: buffer, done: make(chan struct{})}
	s.cond = sync.NewCond(&s.mu)
	go s.drain()
	b.mu.Lock()
	b.subs = append(b.subs, s)
	b.mu.Unlock()
	return s
}

// Publish offers ev to every subscriber queue and returns immediately; it
// never blocks on a consumer.
func (b *EventBus) Publish(ev Event) {
	b.mu.Lock()
	subs := b.subs
	b.mu.Unlock()
	for _, s := range subs {
		s.offer(ev)
	}
}

// Close flushes and stops every subscriber, returning once each has
// consumed all events published before the call. A subscriber callback
// that is blocked delays Close, never Publish — close the bus after the
// campaigns finish, before reading Dropped counts or trusting a trace
// file to be complete.
func (b *EventBus) Close() {
	b.mu.Lock()
	subs := b.subs
	b.subs = nil
	b.mu.Unlock()
	for _, s := range subs {
		s.mu.Lock()
		s.closed = true
		s.cond.Signal()
		s.mu.Unlock()
	}
	for _, s := range subs {
		<-s.done
	}
}

// Dropped reports how many RunDone and RunReused events this subscriber
// has lost to a full queue. Lifecycle events are never dropped.
func (s *Subscription) Dropped() int64 { return s.dropped.Load() }

func (s *Subscription) offer(ev Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	if (ev.Kind == EventRunDone || ev.Kind == EventRunReused) && len(s.queue) >= s.limit {
		s.dropped.Add(1)
		return
	}
	s.queue = append(s.queue, ev)
	s.cond.Signal()
}

// drain delivers queued events in order until the subscription closes and
// the queue is empty. It swaps the whole queue out per wakeup so offer
// holds the lock for an append, never a delivery.
func (s *Subscription) drain() {
	for {
		s.mu.Lock()
		for len(s.queue) == 0 && !s.closed {
			s.cond.Wait()
		}
		batch := s.queue
		s.queue = nil
		closed := s.closed
		s.mu.Unlock()
		for _, ev := range batch {
			s.fn(ev)
		}
		if closed && len(batch) == 0 {
			close(s.done)
			return
		}
	}
}
