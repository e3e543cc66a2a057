package experiments

import (
	"strings"
	"testing"

	"ffis/internal/core"
	"ffis/internal/results"
)

func TestAblationsRender(t *testing.T) {
	o := smallOpts()
	o.Runs = 4
	out, err := Ablations(o)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"flip2", "flip4", "keep3of8", "keep7of8"} {
		if !strings.Contains(out, want) {
			t.Fatalf("ablation table missing %q:\n%s", want, out)
		}
	}
}

func TestFig7WithDetectorMovesSDCToDetected(t *testing.T) {
	o := smallOpts()
	o.Runs = 10
	out, err := Fig7WithDetector(o)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "nyx/DW") || !strings.Contains(out, "nyx/DW+avg") {
		t.Fatalf("table missing cells:\n%s", out)
	}
	// The DW+avg row must show 0.0% SDC (all flagged by the detector);
	// the plain DW row must show a dominant SDC share.
	var plainSDC, avgSDC string
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "nyx/DW+avg") {
			avgSDC = line
		} else if strings.HasPrefix(line, "nyx/DW") {
			plainSDC = line
		}
	}
	if !strings.Contains(avgSDC, " 0.0%") {
		t.Fatalf("avg-detector row still has SDC: %s", avgSDC)
	}
	if strings.Contains(plainSDC, "   0.0%    0.0%") {
		t.Fatalf("plain DW row shows no corruption: %s", plainSDC)
	}
}

// storeOpts routes o's grids through a fresh results store in a temporary
// directory, as the CLIs' -out flag does.
func storeOpts(t *testing.T, o Options) Options {
	t.Helper()
	st, err := results.Create(t.TempDir(), results.Manifest{Seed: o.Seed, Runs: o.Runs})
	if err != nil {
		t.Fatal(err)
	}
	o.RunGrid = func(e *core.Engine, specs []core.CampaignSpec) ([]core.GridResult, error) {
		return results.RunGrid(e, st, specs)
	}
	return o
}

// TestFig7WithDetectorResumesFromAvgStore: Figure 7's Nyx column run with
// the average-value detector, then the detector study run into the same
// store, renders what a fresh detector study renders. An AvgDetector spec's
// key carries "+avg", so its stored records never stand in for the plain
// spec's.
func TestFig7WithDetectorResumesFromAvgStore(t *testing.T) {
	o := smallOpts()
	o.Runs = 10
	fresh, err := Fig7WithDetector(o)
	if err != nil {
		t.Fatal(err)
	}
	o = storeOpts(t, o)
	avg := o
	avg.UseAvgDetector = true
	var specs []WireSpec
	for _, m := range Fig7Models() {
		specs = append(specs, avg.wire("nyx", m).Normalized())
	}
	if _, err := avg.cells("fig7", specs); err != nil {
		t.Fatal(err)
	}
	resumed, err := Fig7WithDetector(o)
	if err != nil {
		t.Fatal(err)
	}
	if resumed != fresh {
		t.Fatalf("detector study over the -avg-detector Figure 7 store differs from a fresh one:\n%s\nwant:\n%s", resumed, fresh)
	}
}
