package experiments

import (
	"crypto/sha256"
	"fmt"
	"os"
	"strings"
	"testing"
)

// fig89Golden holds Figure 8's and Figure 9's text and the SHA-256 of both
// Figure 9 images. Regenerate only after an intentional output change:
//
//	UPDATE_GOLDEN=1 go test -run TestFig8Fig9Pinned ./internal/experiments/
const fig89Golden = "testdata/fig89.golden"

// TestFig8Fig9Pinned pins Figures 8 and 9 at seed 2021, at Nyx edge 24 and
// at the default size, against a golden written while both figures ran
// their own inject loops on fresh worlds: replaying their targets through
// the engine on snapshot clones may not change a byte.
func TestFig8Fig9Pinned(t *testing.T) {
	var b strings.Builder
	for _, n := range []int{24, 0} {
		o := Options{Seed: 2021, NyxN: n}
		fmt.Fprintf(&b, "== NyxN %d\n", n)
		fig8, err := Fig8(o)
		if err != nil {
			t.Fatalf("Fig8 (NyxN %d): %v", n, err)
		}
		b.WriteString(fig8)
		fig9, images, err := Fig9(o)
		if err != nil {
			t.Fatalf("Fig9 (NyxN %d): %v", n, err)
		}
		b.WriteString(fig9)
		for _, name := range []string{"original", "faulty"} {
			fmt.Fprintf(&b, "sha256 %s %x\n", name, sha256.Sum256(images[name]))
		}
	}
	got := b.String()
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(fig89Golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(fig89Golden)
	if err != nil {
		t.Fatalf("%v (regenerate with UPDATE_GOLDEN=1)", err)
	}
	if got != string(want) {
		t.Errorf("Figures 8 and 9 differ from %s\n--- got\n%s--- golden\n%s", fig89Golden, got, want)
	}
}
