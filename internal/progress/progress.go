// Package progress renders the core run-lifecycle event stream for
// humans and machines: a line renderer shared by every CLI (cmd/ffis,
// cmd/experiments, cmd/ffis-worker -progress) and a JSONL trace writer
// (-trace out.jsonl). Both are EventBus subscribers, so a slow terminal
// or a stalled trace file can never stall the run pool — the bus drops
// excess RunDone events for the slow subscriber and counts them.
package progress

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"ffis/internal/classify"
	"ffis/internal/core"
)

// Wire builds the standard CLI event wiring: the shared line renderer to
// progressTo (nil disables, cmd flag -progress) and a JSONL event trace
// to the file at tracePath ("" disables, cmd flag -trace). The returned
// bus is nil when both are disabled — event emission stays off entirely.
// Call finish once the campaigns are done: it flushes the subscribers,
// reports the trace's dropped-event count to errTo, and closes the file.
func Wire(progressTo io.Writer, tracePath string, errTo io.Writer) (bus *core.EventBus, finish func() error, err error) {
	if progressTo == nil && tracePath == "" {
		return nil, func() error { return nil }, nil
	}
	bus = core.NewEventBus()
	if progressTo != nil {
		bus.Subscribe(0, Renderer(progressTo))
	}
	var f *os.File
	var traceSub *core.Subscription
	if tracePath != "" {
		f, err = os.Create(tracePath)
		if err != nil {
			return nil, nil, err
		}
		traceSub = bus.Subscribe(4096, WriteTrace(f))
	}
	finish = func() error {
		bus.Close()
		if f == nil {
			return nil
		}
		if n := traceSub.Dropped(); n > 0 && errTo != nil {
			fmt.Fprintf(errTo, "trace: dropped %d run_done/run_reused events (writer fell behind; lifecycle events are complete)\n", n)
		}
		return f.Close()
	}
	return bus, finish, nil
}

// Renderer returns the shared per-campaign progress renderer: roughly
// every tenth of a campaign's runs, an adaptive stop line when a rule
// fires, plus a terminal line carrying the outcome tally — or the error,
// with the starved-placement ErrNoTargets spelled out the way the tiered
// table renders it. Subscribe it on an EventBus; the bus serializes
// delivery, so w needs no locking of its own.
func Renderer(w io.Writer) func(core.Event) {
	return func(ev core.Event) {
		switch ev.Kind {
		case core.EventRunDone, core.EventRunReused:
			step := ev.Total / 10
			if step < 1 {
				step = 1
			}
			// The terminal SpecDone line reports the final count; skip the
			// last RunDone so completion prints once.
			if ev.Done%step == 0 && ev.Done < ev.Total {
				fmt.Fprintf(w, "[%s] %d/%d\n", ev.Key, ev.Done, ev.Total)
			}
		case core.EventStopDecision:
			if ev.Stopped {
				fmt.Fprintf(w, "[%s] adaptive stop at run %d\n", ev.Key, ev.StopIndex)
			}
		case core.EventSpecDone:
			if ev.Err != nil {
				fmt.Fprintf(w, "[%s] error: %v\n", ev.Key, ev.Err)
			} else {
				fmt.Fprintf(w, "[%s] %d/%d done: %s\n", ev.Key, ev.Done, ev.Total, ev.Result.Tally.String())
			}
		}
	}
}

// traceLine is the JSONL wire form of one event: only the fields the
// event's kind populates, with errors flattened to strings and the
// terminal tally inlined so a trace is self-contained.
type traceLine struct {
	Event string `json:"event"`
	Key   string `json:"key"`

	Done         *int  `json:"done,omitempty"`
	Total        *int  `json:"total,omitempty"`
	Runs         int   `json:"runs,omitempty"`
	ProfileCount int64 `json:"profile_count,omitempty"`

	Index   *int   `json:"index,omitempty"`
	Target  *int64 `json:"target,omitempty"`
	Outcome string `json:"outcome,omitempty"`
	Fired   *bool  `json:"fired,omitempty"`
	CloneUS *int64 `json:"clone_us,omitempty"`
	WorkNS  *int64 `json:"workload_ns,omitempty"`
	ClassUS *int64 `json:"classify_us,omitempty"`
	SimNS   *int64 `json:"sim_ns,omitempty"`

	Barrier   *int  `json:"barrier,omitempty"`
	StopIndex *int  `json:"stop_index,omitempty"`
	Stopped   *bool `json:"stopped,omitempty"`

	Tally map[string]int `json:"tally,omitempty"`
	Error string         `json:"error,omitempty"`
}

// WriteTrace returns a subscriber that streams every event as one JSON
// line to w. Give it a generous bus buffer: under pressure the bus drops
// RunDone lines (counted on the Subscription) rather than stalling runs,
// so a trace is a faithful sample, while its lifecycle lines
// (spec_start, barrier, stop_decision, spec_done) are always complete.
func WriteTrace(w io.Writer) func(core.Event) {
	enc := json.NewEncoder(w)
	return func(ev core.Event) {
		l := traceLine{Event: string(ev.Kind), Key: ev.Key}
		switch ev.Kind {
		case core.EventSpecStart:
			l.Total = &ev.Total
			l.Runs = ev.Runs
			l.ProfileCount = ev.ProfileCount
		case core.EventRunDone, core.EventRunReused:
			l.Index, l.Done, l.Total = &ev.Index, &ev.Done, &ev.Total
			l.Target = &ev.Target
			l.Outcome = ev.Outcome.String()
			l.Fired = &ev.Fired
			l.SimNS = &ev.SimNanos
			if ev.Kind == core.EventRunDone {
				l.CloneUS, l.WorkNS, l.ClassUS = &ev.CloneMicros, &ev.WorkloadNanos, &ev.ClassifyMicros
			}
		case core.EventBarrier:
			l.Barrier, l.Done = &ev.Barrier, &ev.Done
		case core.EventStopDecision:
			l.StopIndex, l.Stopped, l.Done = &ev.StopIndex, &ev.Stopped, &ev.Done
		case core.EventSpecDone:
			l.Done, l.Total = &ev.Done, &ev.Total
			if ev.Err != nil {
				l.Error = ev.Err.Error()
			} else if ev.Result != nil {
				l.Tally = tallyMap(ev.Result)
				if ev.Result.StopIndex > 0 {
					l.StopIndex = &ev.Result.StopIndex
				}
			}
		}
		// Encoding to a CLI-owned file cannot meaningfully fail mid-stream;
		// a full disk surfaces on the file's Close.
		_ = enc.Encode(l)
	}
}

func tallyMap(res *core.CampaignResult) map[string]int {
	out := map[string]int{}
	for _, o := range classify.Outcomes() {
		if n := res.Tally.Count(o); n > 0 {
			out[o.String()] = n
		}
	}
	return out
}
