package stats

import (
	"fmt"
	"math"
	"strings"
)

// Histogram is a fixed-width binned histogram over [Lo, Hi). Values outside
// the range are accumulated in the Under/Over counters so that no sample is
// silently lost — important when diffing halo-mass distributions between a
// golden run and a corrupted run (Figure 8), where corruption can push
// masses far outside the golden range.
type Histogram struct {
	Lo, Hi float64
	Counts []int
	Under  int
	Over   int
}

// NewHistogram returns a histogram with bins equal-width bins over [lo, hi).
// It panics if bins <= 0 or hi <= lo.
func NewHistogram(lo, hi float64, bins int) *Histogram {
	if bins <= 0 {
		panic("stats: histogram needs at least one bin")
	}
	if hi <= lo {
		panic("stats: histogram range must be non-empty")
	}
	return &Histogram{Lo: lo, Hi: hi, Counts: make([]int, bins)}
}

// Add records one sample.
func (h *Histogram) Add(x float64) {
	switch {
	case math.IsNaN(x):
		h.Over++ // NaNs count as out-of-range high; they must not vanish.
	case x < h.Lo:
		h.Under++
	case x >= h.Hi:
		h.Over++
	default:
		i := int((x - h.Lo) / (h.Hi - h.Lo) * float64(len(h.Counts)))
		if i >= len(h.Counts) { // guard against float rounding at the edge
			i = len(h.Counts) - 1
		}
		h.Counts[i]++
	}
}

// BinCenter returns the midpoint of bin i.
func (h *Histogram) BinCenter(i int) float64 {
	w := (h.Hi - h.Lo) / float64(len(h.Counts))
	return h.Lo + (float64(i)+0.5)*w
}

// L1Distance returns the sum of absolute per-bin count differences between
// two histograms with identical geometry; it panics on mismatched geometry.
// Used to quantify how far a faulty mass distribution drifted (Figure 8).
func (h *Histogram) L1Distance(o *Histogram) int {
	if len(h.Counts) != len(o.Counts) || h.Lo != o.Lo || h.Hi != o.Hi {
		panic("stats: L1Distance on histograms with different geometry")
	}
	d := abs(h.Under-o.Under) + abs(h.Over-o.Over)
	for i := range h.Counts {
		d += abs(h.Counts[i] - o.Counts[i])
	}
	return d
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// Render draws a textual bar chart of the histogram, one row per bin,
// scaled so the largest bin spans width characters. It is used by
// cmd/experiments to reproduce the figures as terminal art.
func (h *Histogram) Render(width int) string {
	if width <= 0 {
		width = 50
	}
	max := 1
	for _, c := range h.Counts {
		if c > max {
			max = c
		}
	}
	var b strings.Builder
	for i, c := range h.Counts {
		bar := strings.Repeat("#", c*width/max)
		fmt.Fprintf(&b, "%12.4g | %-*s %d\n", h.BinCenter(i), width, bar, c)
	}
	if h.Under > 0 {
		fmt.Fprintf(&b, "%12s | %d below range\n", "<", h.Under)
	}
	if h.Over > 0 {
		fmt.Fprintf(&b, "%12s | %d above range\n", ">", h.Over)
	}
	return b.String()
}
