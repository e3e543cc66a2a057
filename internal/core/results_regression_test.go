package core

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ffis/internal/classify"
	"ffis/internal/stats"
	"ffis/internal/vfs"
)

// relocatingSkipModel reproduces the shape of a misdirected write: the hook
// moves the live handle (persisting data elsewhere would do the same) and
// then tells the injector to skip the intercepted write. The injector must
// restore the sequential offset to the absolute post-write position — a
// relative seek would advance from wherever the hook parked the handle.
// The model is used directly, never registered: it exists only to pin the
// Skip-path seek contract.
type relocatingSkipModel struct {
	BaseModel
	parkAt int64
}

func (relocatingSkipModel) Name() string        { return "relocating-skip" }
func (relocatingSkipModel) Short() string       { return "RS" }
func (relocatingSkipModel) Host() vfs.Primitive { return vfs.PrimWrite }
func (relocatingSkipModel) Describe() string    { return "moves the handle, then skips the write" }

func (m relocatingSkipModel) MutateWrite(env Env, op WriteOp) WriteAction {
	if _, err := op.File.Seek(m.parkAt, io.SeekStart); err != nil {
		panic(err)
	}
	env.Record(Mutation{Model: m, Path: op.Path, Offset: op.Off, Length: len(op.Buf)})
	return WriteAction{Skip: true}
}

func TestWriteSkipSeeksAbsolutePostWriteOffset(t *testing.T) {
	base := vfs.NewMemFS()
	sig := Config{Model: relocatingSkipModel{parkAt: 100}}.Signature()
	inj := NewInjector(sig, 0, stats.NewRNG(1)) // claim the first write
	fs := inj.Wrap(base)

	f, err := fs.Create("/f")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("AAAA")); err != nil { // skipped, handle parked at 100
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("BBBB")); err != nil { // must land at offset 4
		t.Fatal(err)
	}
	f.Close()

	got, err := vfs.ReadFile(base, "/f")
	if err != nil {
		t.Fatal(err)
	}
	want := append([]byte{0, 0, 0, 0}, []byte("BBBB")...)
	if !bytes.Equal(got, want) {
		t.Fatalf("after skipped write, file = %q (len %d); want %q — sequential offset drifted to where the hook parked the handle",
			got, len(got), want)
	}
	if _, fired := inj.Fired(); !fired {
		t.Fatal("fault never recorded")
	}
}

// TestRunInjectionsTalliesAllSuccessfulRuns pins the documented error
// semantics of runSpec: a run that fails for infrastructure reasons (here:
// a world clone error in the middle of the campaign) surfaces as the
// campaign error, but every other run is still tallied and recorded — the
// tally can never silently cover just a prefix of the records.
func TestRunInjectionsTalliesAllSuccessfulRuns(t *testing.T) {
	const runs = 6
	const failCall = 4 // call 1 is the profiling world; call 4 is run index 2
	var calls atomic.Int64
	w := toyWorkload()
	w.NewFS = hookedWorld(func() error {
		if calls.Add(1) == failCall {
			return fmt.Errorf("world %d exploded", failCall)
		}
		return nil
	})
	res, err := runCampaign(1, CampaignConfig{
		Fault: Config{Model: BitFlip},
		Runs:  runs,
		Seed:  11,
	}, w)
	if err == nil {
		t.Fatal("expected the failing run's error to propagate")
	}
	if !strings.Contains(err.Error(), "run 2") {
		t.Fatalf("error names the wrong run: %v", err)
	}
	if got := res.Tally.Total(); got != runs-1 {
		t.Fatalf("tally covers %d runs, want %d (all successful runs, not a prefix)", got, runs-1)
	}
	if got := len(res.Records); got != runs-1 {
		t.Fatalf("records cover %d runs, want %d", got, runs-1)
	}
	for _, rec := range res.Records {
		if rec.Index == 2 {
			t.Fatal("failed run 2 must not appear among the records")
		}
	}
}

// collectSink is an in-memory RecordSink for contract tests.
type collectSink struct {
	meta    CampaignMeta
	began   int
	records []RunRecord
	failAt  int    // fail the Nth Record call (0 = never)
	onFail  func() // called on that failure, when set
}

func (s *collectSink) BeginCampaign(meta CampaignMeta) error {
	s.meta = meta
	s.began++
	return nil
}

func (*collectSink) Resume() (int, []classify.Outcome) { return 0, nil }

func (s *collectSink) Record(rec RunRecord) error {
	if s.failAt > 0 && len(s.records)+1 == s.failAt {
		if s.onFail != nil {
			s.onFail()
		}
		return fmt.Errorf("sink full")
	}
	s.records = append(s.records, rec)
	return nil
}

func TestCampaignStreamsRecordsToSink(t *testing.T) {
	const runs = 8
	sink := &collectSink{}
	res, err := runCampaign(4, CampaignConfig{
		Fault: Config{Model: BitFlip},
		Runs:  runs,
		Seed:  5,
		Sink:  sink,
	}, toyWorkload())
	if err != nil {
		t.Fatal(err)
	}
	if sink.began != 1 {
		t.Fatalf("BeginCampaign called %d times", sink.began)
	}
	if sink.meta.Workload != "toy" || sink.meta.Runs != runs || sink.meta.Seed != 5 || sink.meta.ProfileCount == 0 {
		t.Fatalf("sink meta = %+v", sink.meta)
	}
	if len(sink.records) != runs {
		t.Fatalf("sink received %d records, want %d", len(sink.records), runs)
	}
	if res.Records != nil {
		t.Fatalf("a campaign with a sink kept %d records in memory", len(res.Records))
	}
	if res.Tally.Total() != runs {
		t.Fatalf("tally covers %d runs, want %d", res.Tally.Total(), runs)
	}
	// The streamed records must be exactly the records an unsunk campaign
	// retains, in index order.
	plain, err := runCampaign(1, CampaignConfig{
		Fault: Config{Model: BitFlip}, Runs: runs, Seed: 5,
	}, toyWorkload())
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range plain.Records {
		got := sink.records[i]
		if got.Index != want.Index || got.Target != want.Target || got.Outcome != want.Outcome || got.Fired != want.Fired {
			t.Fatalf("run %d: sink saw %+v, in-memory campaign has %+v", want.Index, got, want)
		}
	}
}

func TestCampaignSinkErrorFailsCampaign(t *testing.T) {
	sink := &collectSink{failAt: 3}
	_, err := runCampaign(1, CampaignConfig{
		Fault: Config{Model: BitFlip}, Runs: 6, Seed: 5, Sink: sink,
	}, toyWorkload())
	if err == nil || !strings.Contains(err.Error(), "record sink") {
		t.Fatalf("sink failure must fail the campaign; got %v", err)
	}
	if len(sink.records) != 2 {
		t.Fatalf("sink must go sterile after its first error; received %d records", len(sink.records))
	}
}

// TestSinkFailureStopsDispatch: once the sink has failed, no later run can
// be delivered, so a fixed-budget campaign stops dispatching instead of
// executing its remaining budget and failing anyway. Every dispatched run
// clones its world, after one clone for profiling, so the world's CloneFS
// counts the dispatches. Past the failing Record, at most one run per pool
// slot may still clone its world, each one the loop had let through before
// the failure was latched.
//
// The subtests turn the sink, as a distributed worker's sink turns once
// its lease is lost, while run 0 is still in flight and slow: the sink
// refuses the next record it is handed, and that delivery waits on run 0,
// so until then the dispatch window is all that holds the other slots
// back. At most dispatchWindow runs per pool slot may dispatch after the
// sink has turned. Run 0 is told apart by its output file, which a
// one-slot campaign of the same seed, running in index order, shows.
func TestSinkFailureStopsDispatch(t *testing.T) {
	const seed = 5
	var outputs [][]byte
	ref := toyWorkload()
	refRun := ref.Run
	ref.Run = func(fs vfs.FS) error {
		err := refRun(fs)
		out, _ := vfs.ReadFile(fs, "/out/data.bin")
		outputs = append(outputs, out) // the profiling pass, then runs 0, 1, …
		return err
	}
	if _, err := runCampaign(1, CampaignConfig{Fault: Config{Model: BitFlip}, Runs: 8, Seed: seed}, ref); err != nil {
		t.Fatal(err)
	}
	run0 := outputs[1]
	for i, out := range outputs[2:] {
		if bytes.Equal(out, run0) {
			t.Fatalf("run %d writes the same output as run 0; pick another seed", i+1)
		}
	}
	for _, jobs := range []int{2, 8} {
		t.Run(fmt.Sprintf("slow run in flight/jobs=%d", jobs), func(t *testing.T) {
			const runs = 200
			var clones, atFailure atomic.Int64
			var held atomic.Bool
			sink := &refusingSink{}
			w := toyWorkload()
			w.NewFS = hookedWorld(func() error { clones.Add(1); return nil })
			run := w.Run
			w.Run = func(fs vfs.FS) error {
				err := run(fs)
				if out, _ := vfs.ReadFile(fs, "/out/data.bin"); bytes.Equal(out, run0) && held.CompareAndSwap(false, true) {
					atFailure.Store(clones.Load() - 1)
					sink.refuse.Store(true)
					time.Sleep(100 * time.Millisecond)
				}
				return err
			}
			_, err := runCampaign(jobs, CampaignConfig{
				Fault: Config{Model: BitFlip}, Runs: runs, Seed: seed, Sink: sink,
			}, w)
			dispatched := clones.Load() - 1
			if !held.Load() {
				t.Fatal("run 0 was never told apart by its output")
			}
			if err == nil || !strings.Contains(err.Error(), "record sink") {
				t.Fatalf("sink failure must fail the campaign; got %v", err)
			}
			if after, limit := dispatched-atFailure.Load(), int64(dispatchWindow*jobs); after > limit {
				t.Fatalf("dispatched %d runs after the sink turned (%d of %d in all); the window allows %d", after, dispatched, runs, limit)
			}
		})
	}

	const runs, jobs = 200, 2
	var clones, atFailure atomic.Int64
	w := toyWorkload()
	w.NewFS = hookedWorld(func() error { clones.Add(1); return nil })
	sink := &collectSink{failAt: 3, onFail: func() { atFailure.Store(clones.Load() - 1) }}
	_, err := runCampaign(jobs, CampaignConfig{
		Fault: Config{Model: BitFlip}, Runs: runs, Seed: 5, Sink: sink,
	}, w)
	dispatched := clones.Load() - 1
	if err == nil || !strings.Contains(err.Error(), "record sink") {
		t.Fatalf("sink failure must fail the campaign; got %v", err)
	}
	if after := dispatched - atFailure.Load(); after > jobs {
		t.Fatalf("dispatched %d runs after the sink failed (%d of %d in all); want at most %d", after, dispatched, runs, jobs)
	}
}

// countSink is a RecordSink whose delivered count may be read while the
// campaign runs.
type countSink struct{ n atomic.Int64 }

func (*countSink) BeginCampaign(CampaignMeta) error  { return nil }
func (*countSink) Resume() (int, []classify.Outcome) { return 0, nil }
func (s *countSink) Record(RunRecord) error          { s.n.Add(1); return nil }

// refusingSink is a countSink that refuses every record once refuse is set.
type refusingSink struct {
	countSink
	refuse atomic.Bool
}

func (s *refusingSink) Record(rec RunRecord) error {
	if s.refuse.Load() {
		return fmt.Errorf("lease lost")
	}
	return s.countSink.Record(rec)
}

// TestDispatchWindowBoundsRunAhead: one slow early run must not let the
// rest of the pool run ahead of delivery without bound. While the first
// executed run sleeps, at most dispatchWindow runs per pool slot may start
// past the lowest undelivered index; the rest wait for it.
func TestDispatchWindowBoundsRunAhead(t *testing.T) {
	for _, jobs := range []int{2, 8} {
		t.Run(fmt.Sprintf("jobs=%d", jobs), func(t *testing.T) {
			const runs = 400
			var calls, worst atomic.Int64
			sink := &countSink{}
			w := toyWorkload()
			run := w.Run
			w.Run = func(fs vfs.FS) error {
				switch c := calls.Add(1); {
				case c == 2: // call 1 is the profiling pass
					time.Sleep(50 * time.Millisecond)
				case c > 2:
					if gap := c - 1 - sink.n.Load(); gap > worst.Load() {
						worst.Store(gap)
					}
				}
				return run(fs)
			}
			if _, err := runCampaign(jobs, CampaignConfig{
				Fault: Config{Model: BitFlip}, Runs: runs, Seed: 5, Sink: sink,
			}, w); err != nil {
				t.Fatal(err)
			}
			if n := sink.n.Load(); n != runs {
				t.Fatalf("sink received %d records, want %d", n, runs)
			}
			if limit := int64(dispatchWindow * jobs); worst.Load() > limit {
				t.Fatalf("%d runs started past the lowest undelivered index; the window allows %d", worst.Load(), limit)
			}
		})
	}
}

// resumeSink is a collectSink that already holds runs [0, start): the
// resume point a persistent store reports, without the store.
type resumeSink struct {
	collectSink
	start int
	prior []classify.Outcome
}

func (s *resumeSink) Resume() (int, []classify.Outcome) { return s.start, s.prior }

// TestCampaignResumePointExecutesSuffixDeterministically: a sink reporting
// resume point k makes the campaign execute exactly runs [k, Runs), each
// bit-identical to the same index of the uninterrupted campaign, and the
// event stream schedules Runs-k of them.
func TestCampaignResumePointExecutesSuffixDeterministically(t *testing.T) {
	const runs, start = 10, 4
	full, err := runCampaign(2, CampaignConfig{
		Fault: Config{Model: BitFlip}, Runs: runs, Seed: 9,
	}, toyWorkload())
	if err != nil {
		t.Fatal(err)
	}
	bus := NewEventBus()
	specTotal := -1
	bus.Subscribe(0, func(ev Event) {
		if ev.Kind == EventSpecStart {
			specTotal = ev.Total
		}
	})
	sink := &resumeSink{start: start}
	grid := (&Engine{Jobs: 2, Events: bus}).Run([]CampaignSpec{{
		Key:      "resume",
		Workload: toyWorkload(),
		Config:   CampaignConfig{Fault: Config{Model: BitFlip}, Runs: runs, Seed: 9, Sink: sink},
	}})
	bus.Close()
	if grid[0].Err != nil {
		t.Fatal(grid[0].Err)
	}
	suffix := grid[0].Result
	if got := len(sink.records); got != runs-start {
		t.Fatalf("resumed campaign ran %d records, want %d", got, runs-start)
	}
	for i, rec := range sink.records {
		want := full.Records[start+i]
		if rec.Index != want.Index || rec.Target != want.Target || rec.Outcome != want.Outcome || rec.Mutation.BitPos != want.Mutation.BitPos {
			t.Fatalf("resumed run %d diverged from the uninterrupted run: %+v vs %+v", rec.Index, rec, want)
		}
	}
	if suffix.Tally.Total() != runs-start || len(sink.records) != runs-start {
		t.Fatalf("tally covers %d runs and the sink saw %d, want %d", suffix.Tally.Total(), len(sink.records), runs-start)
	}
	if specTotal != runs-start {
		t.Fatalf("SpecStart.Total = %d, want Runs-start = %d", specTotal, runs-start)
	}
}

// TestSinkReceivesRunsInIndexOrder: runs finish out of order under a wide
// pool, yet the sink sees indices start, start+1, … in order. The first
// run to clone its world is held inside the workload until a later run has
// finished, so completion order differs from index order.
func TestSinkReceivesRunsInIndexOrder(t *testing.T) {
	const runs, start = 12, 3
	var dispatching, held atomic.Bool
	entered, release := make(chan struct{}), make(chan struct{})
	var releaseOnce sync.Once
	w := toyWorkload()
	// Every dispatched run clones its world, after one clone for
	// profiling. Holding every clone after the first run's until a run is
	// inside the workload makes that run, in practice run `start`, the held
	// one.
	var clones atomic.Int64
	w.NewFS = hookedWorld(func() error {
		switch clones.Add(1) {
		case 1:
		case 2:
			dispatching.Store(true)
		default:
			<-entered
		}
		return nil
	})
	run := w.Run
	w.Run = func(fs vfs.FS) error {
		if !dispatching.Load() {
			return run(fs) // the fault-free profiling pass
		}
		if held.CompareAndSwap(false, true) {
			close(entered)
			<-release
			return run(fs)
		}
		err := run(fs)
		releaseOnce.Do(func() { close(release) })
		return err
	}
	sink := &resumeSink{start: start}
	grid := (&Engine{Jobs: 8}).Run([]CampaignSpec{{
		Key:      "order",
		Workload: w,
		Config:   CampaignConfig{Fault: Config{Model: BitFlip}, Runs: runs, Seed: 9, Sink: sink},
	}})
	if grid[0].Err != nil {
		t.Fatal(grid[0].Err)
	}
	if len(sink.records) != runs-start {
		t.Fatalf("sink received %d records, want %d", len(sink.records), runs-start)
	}
	for i, rec := range sink.records {
		if rec.Index != start+i {
			t.Fatalf("sink record %d is run %d, want run %d: delivery left index order", i, rec.Index, start+i)
		}
	}
}
