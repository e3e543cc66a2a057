package stats

import (
	"fmt"
	"math"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var k Kahan
	k.Add(xs)
	return k.Sum / float64(len(xs))
}

// Kahan is a compensated running sum, C its running compensation.
// Campaign datasets can mix magnitudes wildly after fault injection, and
// the average-value detector needs ~1e-3 relative accuracy on grids of
// 10^6 cells. A copy taken after a prefix resumes that sum bit for bit.
type Kahan struct{ Sum, C float64 }

// Add continues the sum over xs.
func (k *Kahan) Add(xs []float64) {
	sum, c := k.Sum, k.C
	for _, x := range xs {
		y := x - c
		t := sum + y
		c = (t - sum) - y
		sum = t
	}
	k.Sum, k.C = sum, c
}

// Proportion is an observed binomial proportion with its sample size,
// e.g. "37 SDCs out of 1000 injection runs".
type Proportion struct {
	Successes int
	Trials    int
}

// P returns the point estimate of the proportion (0 when Trials == 0).
func (p Proportion) P() float64 {
	if p.Trials == 0 {
		return 0
	}
	return float64(p.Successes) / float64(p.Trials)
}

// const z95 is the two-sided 95% normal quantile used by the paper's
// "1%~2% error bar ... for 95% confidence interval" statement.
const z95 = 1.959963984540054

// Wilson95 returns the Wilson score 95% confidence interval for the
// proportion. Unlike the normal approximation it behaves sensibly at the
// extremes (0% and 100% observed rates occur routinely in Figure 7 cells,
// e.g. Nyx shorn writes are all benign).
func (p Proportion) Wilson95() (lo, hi float64) {
	if p.Trials == 0 {
		return 0, 0
	}
	n := float64(p.Trials)
	phat := p.P()
	z := z95
	denom := 1 + z*z/n
	center := (phat + z*z/(2*n)) / denom
	half := z * math.Sqrt(phat*(1-phat)/n+z*z/(4*n*n)) / denom
	lo = center - half
	hi = center + half
	if lo < 0 {
		lo = 0
	}
	if hi > 1 {
		hi = 1
	}
	return lo, hi
}

// WilsonHalfWidth95 returns half the width of the Wilson 95% interval: the
// "±" figure adaptive stopping compares against StopRule.TargetHalfWidth.
// Unlike ErrorBar95 it never collapses to zero at 0%/100% observed rates,
// so an all-benign cell cannot satisfy a stopping rule spuriously early.
func (p Proportion) WilsonHalfWidth95() float64 {
	if p.Trials == 0 {
		return 1
	}
	lo, hi := p.Wilson95()
	return (hi - lo) / 2
}

// ErrorBar95 returns the half-width of the normal-approximation 95% CI,
// the quantity the paper quotes as the "error bar" of a campaign.
func (p Proportion) ErrorBar95() float64 {
	if p.Trials == 0 {
		return 0
	}
	phat := p.P()
	return z95 * math.Sqrt(phat*(1-phat)/float64(p.Trials))
}

// String renders the proportion as a percentage with its Wilson 95%
// interval. The normal-approximation bar that used to render here is
// misleading at the 0%/100% cells the Wilson docs call out (it collapses to
// ±0.0%); ErrorBar95 stays available for the paper-parity report column.
func (p Proportion) String() string {
	lo, hi := p.Wilson95()
	return fmt.Sprintf("%.1f%% [%.1f%%, %.1f%%]", 100*p.P(), 100*lo, 100*hi)
}
