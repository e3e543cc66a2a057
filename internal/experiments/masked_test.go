package experiments

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"ffis/internal/apps/montage"
	"ffis/internal/classify"
	"ffis/internal/core"
	"ffis/internal/vfs"
)

// TestMT2ShortcutRecordsMatchFullClassification: MT2's classification
// shortcut (a run whose plane fit masked the fault is Benign without
// running mBgExec and mAdd) changes no record. For every registered
// model, write and read families alike, at two seeds and jobs 1 and 8, an
// MT2 campaign on cloned worlds stores records byte-identical to the same
// campaign on worlds whose Cloner is hidden (plainFS), where
// vfs.Unchanged is always false and every run is classified in full. A
// wrapped Worker counts the Benign classifications that opened no
// projection — the shortcut's, since every full classification reads them
// — and the test requires some under bit flips.
func TestMT2ShortcutRecordsMatchFullClassification(t *testing.T) {
	const runs = 16
	app, err := montage.NewApp(montage.DefaultConfig(), montage.StageDiff)
	if err != nil {
		t.Fatal(err)
	}
	w := app.Workload()
	full := w
	full.NewFS = func() (vfs.FS, error) { return plainFS{vfs.NewMemFS()}, nil }
	shortcuts := map[string]*atomic.Int64{}
	var cloned, rebuilt []core.CampaignSpec
	for _, m := range core.AllModels() {
		for _, seed := range []uint64{2021, 77} {
			key := fmt.Sprintf("MT2/%s/%d", m.Short(), seed)
			n := new(atomic.Int64)
			shortcuts[key] = n
			cw := w
			cw.Worker = func() (func(vfs.FS) error, func(vfs.FS, error) classify.Outcome) {
				run, cls := app.Worker()
				return run, func(fs vfs.FS, runErr error) classify.Outcome {
					opens := 0
					o := cls(projOpens{fs, &opens}, runErr)
					if o == classify.Benign && opens == 0 {
						n.Add(1)
					}
					return o
				}
			}
			cfg := core.CampaignConfig{Fault: core.Config{Model: m}, Runs: runs, Seed: seed}
			// A key of its own: specs of one key share Worker pairs, and the
			// counter must see exactly this spec's classifications.
			cloned = append(cloned, core.CampaignSpec{Key: key, WorldKey: "MT2/cloned/" + key, Workload: cw, Config: cfg})
			rebuilt = append(rebuilt, core.CampaignSpec{Key: key, WorldKey: "MT2/rebuilt", Workload: full, Config: cfg})
		}
	}
	// Rebuilt records do not depend on jobs (the engine suites pin that).
	want := map[string][]string{}
	for _, g := range (&core.Engine{Jobs: 8}).Run(rebuilt) {
		want[g.Spec.Key] = recordLines(t, g)
	}
	for _, jobs := range []int{1, 8} {
		for _, g := range (&core.Engine{Jobs: jobs}).Run(cloned) {
			got := recordLines(t, g)
			if len(got) != len(want[g.Spec.Key]) {
				t.Fatalf("jobs %d %s: %d records, full classification %d", jobs, g.Spec.Key, len(got), len(want[g.Spec.Key]))
			}
			for k, line := range want[g.Spec.Key] {
				if got[k] != line {
					t.Fatalf("jobs %d %s run %d: record differs from full classification\n  full     %s\n  shortcut %s", jobs, g.Spec.Key, k, line, got[k])
				}
			}
		}
	}
	total := int64(0)
	for _, n := range shortcuts {
		total += n.Load()
	}
	if shortcuts["MT2/BF/2021"].Load() == 0 || shortcuts["MT2/BF/77"].Load() == 0 {
		t.Fatalf("the shortcut never fired under bit flips (%d times overall); the test proves nothing", total)
	}
	t.Logf("shortcut took %d classifications over %d cloned campaigns", total, 2*len(cloned))
}

// projOpens counts the files opened under /proj. It forwards
// vfs.Unchanged, so the shortcut still sees the cloned world beneath.
type projOpens struct {
	vfs.FS
	n *int
}

func (p projOpens) Open(name string) (vfs.File, error) {
	if strings.HasPrefix(name, montage.ProjDir+"/") {
		*p.n++
	}
	return p.FS.Open(name)
}

func (p projOpens) Unchanged(name string) bool { return vfs.Unchanged(p.FS, name) }
