package metainject

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ffis/internal/apps/nyx"
)

// tablesGolden holds Table III at strides 7 and 1, each followed by the
// outcome of every case, and Table IV, on the 24³ test dataset.
// Regenerate only after an intentional outcome change:
//
//	UPDATE_GOLDEN=1 go test -run TestTablesPinned ./internal/metainject/
const tablesGolden = "testdata/tables34.golden"

// renderTables renders what tablesGolden pins. A case's outcome is the
// first letter of its name (b, S, d, c), 72 cases to a line.
func renderTables(t *testing.T) string {
	t.Helper()
	var b strings.Builder
	for _, stride := range []int{7, 1} {
		cfg := testCampaign()
		cfg.Stride = stride
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		b.WriteString(RenderTable3(res))
		for i, c := range res.Cases {
			b.WriteString(c.Outcome.String()[:1])
			if i%72 == 71 || i == len(res.Cases)-1 {
				b.WriteByte('\n')
			}
		}
	}
	effects, err := FieldStudy(testSim(), nyx.DefaultHalo())
	if err != nil {
		t.Fatal(err)
	}
	b.WriteString(RenderTable4(effects))
	return b.String()
}

// TestTablesPinned pins Tables III and IV and every metadata case's
// outcome byte for byte, against a golden written while the campaign still
// classified corrupted images with its own copy of the Nyx rules.
func TestTablesPinned(t *testing.T) {
	got := renderTables(t)
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll(filepath.Dir(tablesGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(tablesGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(tablesGolden)
	if err != nil {
		t.Fatalf("%v (regenerate with UPDATE_GOLDEN=1)", err)
	}
	if got != string(raw) {
		t.Fatalf("tables differ from the golden\n--- golden\n%s--- got\n%s", raw, got)
	}
}
