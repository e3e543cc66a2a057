package montage

import (
	"strings"
	"testing"

	"ffis/internal/classify"
	"ffis/internal/core"
	"ffis/internal/stats"
	"ffis/internal/vfs"
)

// projCounter records the files opened under /proj and forwards
// vfs.Origin, so a slot still sees the tokens of the world beneath.
type projCounter struct {
	vfs.FS
	opened map[string]bool
}

func (c projCounter) Open(name string) (vfs.File, error) {
	if strings.HasPrefix(name, ProjDir+"/") {
		c.opened[name] = true
	}
	return c.FS.Open(name)
}

func (c projCounter) Origin(name string) *vfs.Token { return vfs.Origin(c.FS, name) }

// TestTokensSkipUnchangedReads guards the fast path of scratch.read: one
// Worker pair runs MT2 twice, each time on a new clone of one post-Setup
// world, with a fault whose outcome needs classification's full finish.
// Under bit flip, which hosts writes, the second run opens no projection
// or area file, in Run or in Classify: the slot proves each one unchanged
// by its token. Under read bit flip every read is an instance the
// injector must see, so Run opens all twenty, and so does Classify, whose
// slot entries Run's unproven reads left without a token.
func TestTokensSkipUnchangedReads(t *testing.T) {
	cfg := DefaultConfig()
	app, err := NewApp(cfg, StageDiff)
	if err != nil {
		t.Fatal(err)
	}
	world := vfs.NewMemFS()
	if err := app.Setup(world); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		model  core.Model
		target int64 // an instance whose outcome is SDC or detected
		opens  int
	}{
		{core.BitFlip, 5, 0},
		{core.ReadBitFlip, 21, 2 * cfg.Tiles},
	} {
		run, cls := app.Worker()
		for i := range 2 {
			fs := world.Clone()
			inRun, inClassify := projCounter{fs, map[string]bool{}}, projCounter{fs, map[string]bool{}}
			inj := core.NewInjector(core.Config{Model: tc.model}.Signature(), tc.target, stats.NewRNG(2021))
			runErr := run(inj.Wrap(inRun))
			outcome := cls(inClassify, runErr)
			if outcome != classify.SDC && outcome != classify.Detected {
				t.Fatalf("%s at %d: outcome %s (run error %v); the target does not reach finish", tc.model.Name(), tc.target, outcome, runErr)
			}
			if i == 1 && (len(inRun.opened) != tc.opens || len(inClassify.opened) != tc.opens) {
				t.Errorf("%s: the second run opened %d files under %s in Run and %d in Classify, want %d in each",
					tc.model.Name(), len(inRun.opened), ProjDir, len(inClassify.opened), tc.opens)
			}
		}
	}
}

// TestReadModelProfilesUnchanged pins Engine.Profile's instance counts on
// MT1–MT4 for the models that host reads, and for bit flip: a view armed
// with a read model answers no token, so every read is still issued and
// counted, and skipped reads never count for a write model.
func TestReadModelProfilesUnchanged(t *testing.T) {
	reads := [...]int64{10, 44, 11, 21}
	want := map[core.Model][4]int64{
		core.ReadBitFlip: reads, core.ShortRead: reads, core.LatentCorruption: reads, core.UnreadableSector: reads,
		core.BitFlip: {260, 100, 130, 75},
	}
	for m, counts := range want {
		for _, s := range Stages() {
			app, err := NewApp(DefaultConfig(), s)
			if err != nil {
				t.Fatal(err)
			}
			n, err := (&core.Engine{}).Profile(core.CampaignSpec{Workload: app.Workload(), Config: core.CampaignConfig{Fault: core.Config{Model: m}}})
			if err != nil {
				t.Fatal(err)
			}
			if n != counts[s-1] {
				t.Errorf("%s MT%d: %d instances, want %d", m.Name(), int(s), n, counts[s-1])
			}
		}
	}
}
