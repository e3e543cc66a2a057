package core

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"ffis/internal/stats"
	"ffis/internal/vfs"
)

// eventGrid is the determinism fixture: the heterogeneous engine grid plus
// one adaptive campaign whose wide confidence target guarantees an early
// stop at the first barrier, so the stream exercises Barrier, StopDecision,
// and an early-stopped SpecDone too.
func eventGrid() []CampaignSpec {
	specs := gridSpecs(8)
	specs = append(specs, CampaignSpec{
		Key:      "adaptive/" + BitFlip.Short(),
		Workload: toyWorkload(),
		Config: CampaignConfig{
			Fault: Config{Model: BitFlip},
			Runs:  64,
			Seed:  11,
			Stop:  &stats.StopRule{TargetHalfWidth: 0.9, MinRuns: 8, CheckEvery: 8},
		},
	})
	return specs
}

// eventView runs the fixture grid at the given pool width and renders each
// campaign's event stream into a canonical summary: SpecStart fields,
// the RunDone set ordered by index (wall-clock timings excluded — they are
// the one legitimately nondeterministic payload — and RunReused folded in,
// since which runs are reused depends on scheduling), the Barrier/StopDecision
// sequence in arrival order, and the terminal counts and tally.
func eventView(t *testing.T, jobs int) map[string]string {
	t.Helper()
	bus := NewEventBus()
	var mu sync.Mutex
	perKey := map[string][]Event{}
	bus.Subscribe(1<<16, func(ev Event) {
		mu.Lock()
		perKey[ev.Key] = append(perKey[ev.Key], ev)
		mu.Unlock()
	})
	for _, r := range (&Engine{Jobs: jobs, Events: bus}).Run(eventGrid()) {
		if r.Err != nil {
			t.Fatalf("jobs=%d %s: %v", jobs, r.Spec.Key, r.Err)
		}
	}
	bus.Close()

	out := map[string]string{}
	for key, evs := range perKey {
		var b strings.Builder
		var runs []Event
		for _, ev := range evs {
			switch ev.Kind {
			case EventSpecStart:
				fmt.Fprintf(&b, "start total=%d runs=%d profile=%d\n", ev.Total, ev.Runs, ev.ProfileCount)
			case EventRunDone, EventRunReused:
				runs = append(runs, ev)
			case EventBarrier:
				fmt.Fprintf(&b, "barrier %d\n", ev.Barrier)
			case EventStopDecision:
				fmt.Fprintf(&b, "decision at=%d stopped=%v\n", ev.StopIndex, ev.Stopped)
			case EventSpecDone:
				if ev.Err != nil {
					fmt.Fprintf(&b, "done err=%v\n", ev.Err)
					break
				}
				fmt.Fprintf(&b, "done %d/%d tally=%s\n", ev.Done, ev.Total, ev.Result.Tally.String())
			}
		}
		sort.Slice(runs, func(i, j int) bool { return runs[i].Index < runs[j].Index })
		for _, ev := range runs {
			fmt.Fprintf(&b, "run %d target=%d outcome=%s fired=%v\n", ev.Index, ev.Target, ev.Outcome, ev.Fired)
		}
		out[key] = b.String()
	}
	return out
}

// TestEventStreamDeterministicAcrossJobs pins the stream to the same
// determinism contract as the records themselves: modulo wall-clock
// timings and RunDone arrival order, a grid emits the identical event set
// whether it runs serially or on an eight-wide pool — including the
// adaptive campaign's barrier and stopping-decision trail.
func TestEventStreamDeterministicAcrossJobs(t *testing.T) {
	serial := eventView(t, 1)
	wide := eventView(t, 8)
	if len(serial) != len(wide) {
		t.Fatalf("campaign key sets differ: %d vs %d", len(serial), len(wide))
	}
	for key, want := range serial {
		got, ok := wide[key]
		if !ok {
			t.Fatalf("%s: stream missing at jobs=8", key)
		}
		if got != want {
			t.Errorf("%s: event stream diverged between jobs=1 and jobs=8:\n--- jobs=1 ---\n%s--- jobs=8 ---\n%s", key, want, got)
		}
	}
	// The adaptive fixture must actually have stopped early, or this test
	// never exercised barriers and stop decisions at all.
	adaptive := serial["adaptive/"+BitFlip.Short()]
	if !strings.Contains(adaptive, "decision at=8 stopped=true") || !strings.Contains(adaptive, "done 8/8") {
		t.Fatalf("adaptive campaign did not stop at the first barrier:\n%s", adaptive)
	}
}

// TestSpecEventsCarryOneKey pins one event key per spec: a spec without a
// Key labels every event with its workload name, the terminal SpecDone of
// a campaign that fails before any run (no runs, a failing profiling pass,
// no targets) included, as its SpecStart and RunDone events do on success.
func TestSpecEventsCarryOneKey(t *testing.T) {
	bitFlip := Config{Model: BitFlip}
	zeroRuns := toyWorkload()
	zeroRuns.Name = "zero-runs"
	specs := []CampaignSpec{
		{Workload: toyWorkload(), Config: CampaignConfig{Fault: bitFlip, Runs: 4, Seed: 1}},
		{Workload: zeroRuns, Config: CampaignConfig{Fault: bitFlip}},
		{Workload: Workload{Name: "broken", Run: func(vfs.FS) error { return errors.New("boom") }},
			Config: CampaignConfig{Fault: bitFlip, Runs: 4}},
		{Workload: Workload{Name: "no-io", Run: func(vfs.FS) error { return nil }},
			Config: CampaignConfig{Fault: bitFlip, Runs: 4}},
	}
	bus := NewEventBus()
	var mu sync.Mutex
	perKey := map[string][]EventKind{}
	bus.Subscribe(1<<10, func(ev Event) {
		mu.Lock()
		perKey[ev.Key] = append(perKey[ev.Key], ev.Kind)
		mu.Unlock()
	})
	results := (&Engine{Jobs: 2, Events: bus}).Run(specs)
	bus.Close()
	if results[0].Err != nil {
		t.Fatalf("toy: %v", results[0].Err)
	}
	for _, r := range results[1:] {
		if r.Err == nil {
			t.Fatalf("%s: campaign succeeded, want a failure before any run", r.Spec.Workload.Name)
		}
	}
	if !errors.Is(results[3].Err, ErrNoTargets) {
		t.Fatalf("no-io: err = %v, want ErrNoTargets", results[3].Err)
	}
	if evs := perKey[""]; len(evs) > 0 {
		t.Fatalf("events with an empty key: %v", evs)
	}
	toy := perKey["toy"]
	if len(toy) != 6 || toy[0] != EventSpecStart || toy[5] != EventSpecDone {
		t.Fatalf("toy: events %v, want SpecStart, 4 runs, SpecDone", toy)
	}
	for _, r := range results[1:] {
		name := r.Spec.Workload.Name
		if evs := perKey[name]; len(evs) != 1 || evs[0] != EventSpecDone {
			t.Fatalf("%s: events %v, want one SpecDone", name, evs)
		}
	}
}

// TestStalledSubscriberNeverBlocksRuns is the regression test for the drop
// policy: a subscriber that consumes nothing while the campaign executes
// must not stall the run pool; it loses RunDone telemetry (counted), never
// lifecycle events.
func TestStalledSubscriberNeverBlocksRuns(t *testing.T) {
	bus := NewEventBus()
	release := make(chan struct{})
	var mu sync.Mutex
	kinds := map[EventKind]int{}
	sub := bus.Subscribe(2, func(ev Event) {
		<-release // stalled until the campaign is long over
		mu.Lock()
		kinds[ev.Kind]++
		mu.Unlock()
	})

	done := make(chan []GridResult, 1)
	go func() {
		done <- (&Engine{Jobs: 4, Events: bus}).Run([]CampaignSpec{{
			Key:      "stalled",
			Workload: toyWorkload(),
			Config:   CampaignConfig{Fault: Config{Model: BitFlip}, Runs: 64, Seed: 5},
		}})
	}()
	var results []GridResult
	select {
	case results = <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("engine run blocked on a stalled event subscriber")
	}
	if results[0].Err != nil {
		t.Fatal(results[0].Err)
	}
	if results[0].Result.Tally.Total() != 64 {
		t.Fatalf("tally %d, want 64", results[0].Result.Tally.Total())
	}

	close(release)
	bus.Close()
	mu.Lock()
	defer mu.Unlock()
	if kinds[EventSpecStart] != 1 || kinds[EventSpecDone] != 1 {
		t.Fatalf("lifecycle events must survive a stalled subscriber, got %v", kinds)
	}
	if sub.Dropped() == 0 {
		t.Fatal("a 2-slot queue over 64 runs should have dropped RunDone events")
	}
	if got := int64(kinds[EventRunDone]) + sub.Dropped(); got != 64 {
		t.Fatalf("delivered(%d) + dropped(%d) RunDone = %d, want 64", kinds[EventRunDone], sub.Dropped(), got)
	}
}

// TestEventBusDropPolicy exercises the bus directly: only RunDone is ever
// droppable, lifecycle events always queue past a full buffer, and Close
// flushes everything published before it.
func TestEventBusDropPolicy(t *testing.T) {
	bus := NewEventBus()
	release := make(chan struct{})
	var mu sync.Mutex
	var got []EventKind
	sub := bus.Subscribe(2, func(ev Event) {
		<-release
		mu.Lock()
		got = append(got, ev.Kind)
		mu.Unlock()
	})

	bus.Publish(Event{Kind: EventSpecStart, Key: "k"})
	for i := 0; i < 50; i++ {
		bus.Publish(Event{Kind: EventRunDone, Key: "k", Index: i})
	}
	bus.Publish(Event{Kind: EventBarrier, Key: "k", Barrier: 50})
	bus.Publish(Event{Kind: EventStopDecision, Key: "k", StopIndex: 50})
	bus.Publish(Event{Kind: EventSpecDone, Key: "k"})
	close(release)
	bus.Close()

	mu.Lock()
	defer mu.Unlock()
	counts := map[EventKind]int{}
	for _, k := range got {
		counts[k]++
	}
	for _, kind := range []EventKind{EventSpecStart, EventBarrier, EventStopDecision, EventSpecDone} {
		if counts[kind] != 1 {
			t.Fatalf("lifecycle kind %s delivered %d times, want 1 (got %v)", kind, counts[kind], counts)
		}
	}
	if sub.Dropped() == 0 {
		t.Fatal("50 RunDone events through a 2-slot stalled queue should drop")
	}
	if total := int64(counts[EventRunDone]) + sub.Dropped(); total != 50 {
		t.Fatalf("delivered(%d) + dropped(%d) = %d RunDone, want 50", counts[EventRunDone], sub.Dropped(), total)
	}
}
