package stats

import (
	"math"
	"testing"
)

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at step %d", i)
		}
	}
}

func TestRNGSeedSensitivity(t *testing.T) {
	a := NewRNG(1)
	b := NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d/100 identical outputs", same)
	}
}

func TestRNGZeroSeedIsUsable(t *testing.T) {
	r := NewRNG(0)
	zeroes := 0
	for i := 0; i < 100; i++ {
		if r.Uint64() == 0 {
			zeroes++
		}
	}
	if zeroes > 1 {
		t.Fatalf("zero seed generator emitted %d zero words", zeroes)
	}
}

func TestIntnBounds(t *testing.T) {
	r := NewRNG(7)
	for _, n := range []int{1, 2, 3, 10, 1000, 1 << 30} {
		for i := 0; i < 200; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestIntnUniformity(t *testing.T) {
	r := NewRNG(99)
	const n, trials = 8, 80000
	counts := make([]int, n)
	for i := 0; i < trials; i++ {
		counts[r.Intn(n)]++
	}
	want := trials / n
	for i, c := range counts {
		if c < want*9/10 || c > want*11/10 {
			t.Errorf("bucket %d has %d hits, want about %d", i, c, want)
		}
	}
}

func TestInt64nBounds(t *testing.T) {
	r := NewRNG(7)
	for _, n := range []int64{1, 2, 3, 10, 1000, 1 << 30, 1 << 40, math.MaxInt64} {
		for i := 0; i < 200; i++ {
			v := r.Int64n(n)
			if v < 0 || v >= n {
				t.Fatalf("Int64n(%d) = %d out of range", n, v)
			}
		}
	}
}

// TestInt64nMatchesIntn pins the campaign-reproducibility contract: for any
// bound both methods accept, the same stream yields the same draws, so
// switching the target-selection path from Intn to Int64n cannot perturb a
// single historical campaign.
func TestInt64nMatchesIntn(t *testing.T) {
	for _, n := range []int{1, 2, 7, 4096, 1<<31 - 1} {
		a, b := NewRNG(123), NewRNG(123)
		for i := 0; i < 500; i++ {
			x, y := a.Intn(n), b.Int64n(int64(n))
			if int64(x) != y {
				t.Fatalf("n=%d step %d: Intn=%d Int64n=%d", n, i, x, y)
			}
		}
	}
}

// TestInt64nBeyondMaxInt32 is the regression test for the campaign target
// draw: profile counts above math.MaxInt32 must reach the full range instead
// of being truncated through a 32-bit int (the old rng.Intn(int(count))
// path). The bound is chosen so roughly half the draws exceed MaxInt32.
func TestInt64nBeyondMaxInt32(t *testing.T) {
	r := NewRNG(17)
	n := int64(math.MaxInt32) * 2
	above := 0
	const trials = 2000
	for i := 0; i < trials; i++ {
		v := r.Int64n(n)
		if v < 0 || v >= n {
			t.Fatalf("Int64n(%d) = %d out of range", n, v)
		}
		if v > math.MaxInt32 {
			above++
		}
	}
	if above < trials/4 || above > trials*3/4 {
		t.Fatalf("only %d/%d draws above MaxInt32; high half unreachable?", above, trials)
	}
}

func TestInt64nPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Int64n(0) did not panic")
		}
	}()
	NewRNG(1).Int64n(0)
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(3)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", f)
		}
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := NewRNG(5)
	const n = 200000
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		x := r.NormFloat64()
		sum += x
		sumsq += x * x
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("normal mean = %v, want about 0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Errorf("normal variance = %v, want about 1", variance)
	}
}
