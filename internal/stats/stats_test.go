package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMeanBasics(t *testing.T) {
	cases := []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{5}, 5},
		{[]float64{1, 2, 3, 4}, 2.5},
		{[]float64{-1, 1}, 0},
	}
	for _, c := range cases {
		if got := Mean(c.xs); !almostEq(got, c.want, 1e-12) {
			t.Errorf("Mean(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestMeanKahanStability(t *testing.T) {
	// 1e6 copies of 1.0 plus alternating +/- noise should average to 1
	// within tight tolerance; naive summation would already drift.
	xs := make([]float64, 1_000_000)
	for i := range xs {
		xs[i] = 1.0
		if i%2 == 0 {
			xs[i] += 1e-9
		} else {
			xs[i] -= 1e-9
		}
	}
	if m := Mean(xs); !almostEq(m, 1, 1e-12) {
		t.Fatalf("mean drifted: %v", m)
	}
}

func TestProportionPointEstimate(t *testing.T) {
	p := Proportion{Successes: 37, Trials: 1000}
	if !almostEq(p.P(), 0.037, 1e-12) {
		t.Fatalf("P = %v", p.P())
	}
	if (Proportion{}).P() != 0 {
		t.Fatal("empty proportion should be 0")
	}
}

func TestWilson95Contains(t *testing.T) {
	p := Proportion{Successes: 500, Trials: 1000}
	lo, hi := p.Wilson95()
	if lo >= 0.5 || hi <= 0.5 {
		t.Fatalf("interval [%v,%v] should contain 0.5", lo, hi)
	}
	if hi-lo > 0.07 {
		t.Fatalf("interval too wide for n=1000: %v", hi-lo)
	}
}

func TestWilson95Extremes(t *testing.T) {
	// All-benign cells (e.g. Nyx shorn write) must still give a sane CI.
	p := Proportion{Successes: 0, Trials: 1000}
	lo, hi := p.Wilson95()
	if lo > 1e-15 {
		t.Errorf("lo = %v, want ~0", lo)
	}
	if hi <= 0 || hi > 0.01 {
		t.Errorf("hi = %v, want small positive", hi)
	}
	p = Proportion{Successes: 1000, Trials: 1000}
	lo, hi = p.Wilson95()
	if hi != 1 {
		t.Errorf("hi = %v, want 1", hi)
	}
	if lo >= 1 || lo < 0.99 {
		t.Errorf("lo = %v, want slightly below 1", lo)
	}
}

func TestErrorBarMatchesPaperScale(t *testing.T) {
	// The paper: 1000 runs leaves a 1%~2% error bar on average for 95% CI.
	// Worst case (p=0.5) should be ~3.1%, typical rates land in 1-2%.
	p := Proportion{Successes: 100, Trials: 1000}
	if eb := p.ErrorBar95(); eb < 0.015 || eb > 0.025 {
		t.Fatalf("error bar at 10%% rate, n=1000: %v, want ~1.9%%", eb)
	}
}

func TestProportionQuickProperties(t *testing.T) {
	f := func(s, n uint16) bool {
		trials := int(n%2000) + 1
		succ := int(s) % (trials + 1)
		p := Proportion{Successes: succ, Trials: trials}
		lo, hi := p.Wilson95()
		return lo >= 0 && hi <= 1 && lo <= hi && p.P() >= lo-1e-12 && p.P() <= hi+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestKahanResumesBitForBit checks that a sum resumed from a copy of its
// state after any prefix equals the one-pass sum bit for bit, on values
// whose magnitudes differ wildly.
func TestKahanResumesBitForBit(t *testing.T) {
	rng := NewRNG(5)
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = math.Ldexp(rng.NormFloat64(), rng.Intn(120)-60)
	}
	var whole Kahan
	whole.Add(xs)
	for _, cut := range []int{0, 1, 255, 256, 500, 999, 1000} {
		var k Kahan
		k.Add(xs[:cut])
		resumed := k
		resumed.Add(xs[cut:])
		if math.Float64bits(resumed.Sum) != math.Float64bits(whole.Sum) || math.Float64bits(resumed.C) != math.Float64bits(whole.C) {
			t.Fatalf("cut %d: resumed %+v, one pass %+v", cut, resumed, whole)
		}
	}
	if got, want := Mean(xs), whole.Sum/float64(len(xs)); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("Mean %v, Kahan sum / n %v", got, want)
	}
}
