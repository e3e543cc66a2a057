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
// running mBgExec and mAdd) is taken. For every registered model, write
// and read families alike, at two seeds and jobs 1 and 8, a wrapped Worker
// counts the Benign classifications that opened no projection — the
// shortcut's, since every full classification reads them — and the test
// requires some under bit flips. That the shortcut changes no record is
// core's TestEngineMatchesReference: its reference loop classifies every
// run of MT2 under every registered model in full, on worlds it builds
// fresh, where vfs.Unchanged is always false.
func TestMT2ShortcutRecordsMatchFullClassification(t *testing.T) {
	const runs = 16
	app, err := montage.NewApp(montage.DefaultConfig(), montage.StageDiff)
	if err != nil {
		t.Fatal(err)
	}
	w := app.Workload()
	shortcuts := map[string]*atomic.Int64{}
	var cloned []core.CampaignSpec
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
		}
	}
	for _, jobs := range []int{1, 8} {
		for _, g := range (&core.Engine{Jobs: jobs}).Run(cloned) {
			if g.Err != nil {
				t.Fatalf("jobs %d %s: %v", jobs, g.Spec.Key, g.Err)
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

// projOpens counts the files opened under /proj. It answers vfs.Origin
// with a new token for every file the cloned world beneath proves
// unchanged: the shortcut still sees the clone, while no token matches the
// one a read recorded, so every full classification reads the projections.
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

func (p projOpens) Origin(name string) *vfs.Token {
	if vfs.Origin(p.FS, name) == nil {
		return nil
	}
	return new(vfs.Token)
}
