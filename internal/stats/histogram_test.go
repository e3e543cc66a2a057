package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

// addAll records every sample in xs.
func addAll(h *Histogram, xs ...float64) {
	for _, x := range xs {
		h.Add(x)
	}
}

// samples counts every recorded sample, out-of-range ones included.
func samples(h *Histogram) int {
	n := h.Under + h.Over
	for _, c := range h.Counts {
		n += c
	}
	return n
}

func TestHistogramBinning(t *testing.T) {
	h := NewHistogram(0, 10, 10)
	addAll(h, 0, 0.5, 1, 5, 9.99)
	if h.Counts[0] != 2 {
		t.Errorf("bin0 = %d, want 2", h.Counts[0])
	}
	if h.Counts[1] != 1 || h.Counts[5] != 1 || h.Counts[9] != 1 {
		t.Errorf("counts = %v", h.Counts)
	}
	if samples(h) != 5 {
		t.Errorf("total = %d", samples(h))
	}
}

func TestHistogramOutOfRange(t *testing.T) {
	h := NewHistogram(0, 1, 4)
	h.Add(-0.1)
	h.Add(1.0) // hi is exclusive
	h.Add(2)
	h.Add(math.NaN())
	if h.Under != 1 {
		t.Errorf("under = %d", h.Under)
	}
	if h.Over != 3 {
		t.Errorf("over = %d", h.Over)
	}
	if samples(h) != 4 {
		t.Errorf("total = %d", samples(h))
	}
}

func TestHistogramNeverLosesSamples(t *testing.T) {
	f := func(seed uint64, n uint8) bool {
		r := NewRNG(seed)
		h := NewHistogram(-1, 1, 8)
		count := int(n)
		for i := 0; i < count; i++ {
			h.Add(r.NormFloat64() * 3)
		}
		return samples(h) == count
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestHistogramEdgeRounding(t *testing.T) {
	// A value infinitesimally below Hi must land in the last bin, never
	// index out of range.
	h := NewHistogram(0, 1, 3)
	h.Add(math.Nextafter(1, 0))
	if h.Counts[2] != 1 {
		t.Fatalf("edge value landed in %v", h.Counts)
	}
}

func TestHistogramPanics(t *testing.T) {
	for _, f := range []func(){
		func() { NewHistogram(0, 1, 0) },
		func() { NewHistogram(1, 1, 4) },
		func() { NewHistogram(2, 1, 4) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestL1Distance(t *testing.T) {
	a := NewHistogram(0, 10, 5)
	b := NewHistogram(0, 10, 5)
	addAll(a, 1, 1, 5)
	addAll(b, 1, 5, 5)
	if d := a.L1Distance(b); d != 2 {
		t.Fatalf("L1 = %d, want 2", d)
	}
	if d := a.L1Distance(a); d != 0 {
		t.Fatalf("self distance = %d", d)
	}
}

func TestL1DistanceGeometryMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewHistogram(0, 1, 2).L1Distance(NewHistogram(0, 1, 3))
}

func TestBinCenter(t *testing.T) {
	h := NewHistogram(0, 10, 10)
	if c := h.BinCenter(0); !almostEq(c, 0.5, 1e-12) {
		t.Errorf("center0 = %v", c)
	}
	if c := h.BinCenter(9); !almostEq(c, 9.5, 1e-12) {
		t.Errorf("center9 = %v", c)
	}
}

func TestRenderShowsBars(t *testing.T) {
	h := NewHistogram(0, 2, 2)
	addAll(h, 0.1, 0.2, 0.3, 1.5)
	h.Add(-5)
	out := h.Render(20)
	if !strings.Contains(out, "#") {
		t.Fatal("render produced no bars")
	}
	if !strings.Contains(out, "below range") {
		t.Fatal("render did not mention underflow")
	}
}
