package progress

import (
	"bytes"
	"strings"
	"testing"

	"ffis/internal/core"
)

// TestWriteTraceMarksReusedRuns pins the trace form of a reused run: a
// run_reused line with the run's identity and no stage timings, while an
// executed run's run_done line carries them.
func TestWriteTraceMarksReusedRuns(t *testing.T) {
	var buf bytes.Buffer
	write := WriteTrace(&buf)
	write(core.Event{Kind: core.EventRunDone, Key: "k", Index: 0, CloneMicros: 5})
	write(core.Event{Kind: core.EventRunReused, Key: "k", Index: 1, Target: 3, SimNanos: 7})
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("want 2 trace lines, got %q", buf.String())
	}
	if !strings.Contains(lines[0], `"event":"run_done"`) || !strings.Contains(lines[0], `"clone_us":5`) {
		t.Fatalf("executed run line: %s", lines[0])
	}
	for _, want := range []string{`"event":"run_reused"`, `"index":1`, `"target":3`, `"sim_ns":7`} {
		if !strings.Contains(lines[1], want) {
			t.Fatalf("reused run line lacks %s: %s", want, lines[1])
		}
	}
	for _, timing := range []string{"clone_us", "workload_ns", "classify_us"} {
		if strings.Contains(lines[1], timing) {
			t.Fatalf("reused run line carries %s: %s", timing, lines[1])
		}
	}
}
