package main

import (
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"os"
	"sort"
	"sync"
	"time"

	"ffis/internal/campaignd"
	"ffis/internal/classify"
	"ffis/internal/core"
	"ffis/internal/experiments"
	"ffis/internal/results"
	"ffis/internal/stats"
)

// slots is the closed-loop load: every workload keeps exactly this many runs
// in flight (the engine pool width, or workers × Jobs 1 when distributed),
// matching the two cores of the machine the baseline was taken on.
const slots = 2

// Fixed workload sizes. A rep is one complete campaign of the workload;
// the timed phase repeats reps until its duration is spent, so every
// commit measures identical campaigns.
const (
	nyxN = 24 // Nyx grid edge of every Nyx world

	fig7Runs = 40 // runs per Figure 7 spec (6 cells × 3 models)
	rwRuns   = 80 // runs per tiered read/write spec (2 cells × 3 backends × 4 models)

	adaptiveBudget = 600  // run budget per MT2 spec
	adaptiveHW     = 0.06 // target Wilson half-width of the stopping rule

	distRuns = 200 // runs per distributed spec (2 cells × 3 models)
)

// workload is one named benchmark workload: why it exists, and how to set
// it up. Set-up builds the workloads and warms the engine's memo; the
// returned campaign then runs reps.
type workload struct {
	name  string
	why   string
	setup func(seed uint64) (campaign, error)
}

// campaign is a set-up workload, ready to run reps.
type campaign interface {
	// rep runs the campaign once. A non-nil tracer observes the rep's
	// event stream (and, when distributed, its HTTP traffic); nil runs it
	// with tracing off (Engine.Events nil).
	rep(tr *tracer) (repResult, error)
}

// repResult is what one rep produced.
type repResult struct {
	wall    time.Duration
	runs    int // runs executed (the adaptive rule decides how many)
	failed  int // runs of specs that ended in an error
	tallies tallies
}

// tallies maps a spec key to its outcome counts in classify.Outcomes order.
type tallies map[string][4]int

func countsOf(t classify.Tally) [4]int {
	var c [4]int
	for i, o := range classify.Outcomes() {
		c[i] = t.Count(o)
	}
	return c
}

var workloads = []workload{
	{
		name:  "fig7_grid",
		why:   "the paper's Figure 7 grid in memory: application compute and classification dominate",
		setup: setupFig7,
	},
	{
		name:  "rw_tiered",
		why:   "read-path faults on tiered mem/object/latency worlds: MountFS, ObjectFS, LatencyFS and the read injector",
		setup: setupRWTiered,
	},
	{
		name:  "mt2_adaptive",
		why:   "time to an answer of stated confidence: MT2 under an adaptive stopping rule, with barrier drains",
		setup: setupAdaptive,
	},
	{
		name:  "distributed_grid",
		why:   "cheap runs through the campaignd coordinator and 2 workers: lease, ingest, store encode, finalize",
		setup: setupDistributed,
	},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// engineCampaign runs a spec grid on one in-process engine.
type engineCampaign struct {
	engine *core.Engine
	specs  []core.CampaignSpec
}

// warmEngine builds an engine and runs a 1-run warm-up of every spec on it,
// which fills the engine's world snapshots and profile counts: reps then
// time injection runs only.
func warmEngine(jobs int, specs []core.CampaignSpec) (*core.Engine, error) {
	e := &core.Engine{Jobs: jobs}
	warm := make([]core.CampaignSpec, len(specs))
	for i, s := range specs {
		s.Config.Runs, s.Config.Stop = 1, nil
		warm[i] = s
	}
	for _, r := range e.Run(warm) {
		if r.Err != nil {
			return nil, fmt.Errorf("warm-up %s: %w", r.Spec.Key, r.Err)
		}
	}
	return e, nil
}

func newEngineCampaign(specs []core.CampaignSpec) (*engineCampaign, error) {
	e, err := warmEngine(slots, specs)
	if err != nil {
		return nil, err
	}
	return &engineCampaign{engine: e, specs: specs}, nil
}

func (c *engineCampaign) rep(tr *tracer) (repResult, error) {
	c.engine.Events = nil
	if tr != nil {
		c.engine.Events = tr.bus()
	}
	t0 := time.Now()
	grid := c.engine.Run(c.specs)
	if tr != nil {
		// Delivery to the subscriber is part of what tracing costs.
		tr.closeBuses()
	}
	res := repResult{wall: time.Since(t0), tallies: tallies{}}
	var firstErr error
	for _, r := range grid {
		n := r.Result.Tally.Total()
		res.runs += n
		res.tallies[r.Spec.Key] = countsOf(r.Result.Tally)
		if r.Err != nil {
			res.failed += r.Spec.Config.Runs - n
			if firstErr == nil {
				firstErr = fmt.Errorf("%s: %w", r.Spec.Key, r.Err)
			}
		}
	}
	return res, firstErr
}

func setupFig7(seed uint64) (campaign, error) {
	o := experiments.Options{Seed: seed, NyxN: nyxN}
	var specs []core.CampaignSpec
	for _, cell := range experiments.Fig7Cells {
		w, err := experiments.NewWorkload(cell, o)
		if err != nil {
			return nil, err
		}
		for _, m := range experiments.Fig7Models() {
			specs = append(specs, core.CampaignSpec{
				Key:      cell + "/" + m.Short(),
				WorldKey: cell,
				Workload: w,
				Config:   core.CampaignConfig{Fault: core.Config{Model: m}, Runs: fig7Runs, Seed: seed},
			})
		}
	}
	return newEngineCampaign(specs)
}

// rwModels are the read-path models plus one write model, so the tiered
// worlds see reads beside writes.
var rwModels = []string{"read-bit-flip", "latent-corruption", "short-read", "dropped-write"}

func setupRWTiered(seed uint64) (campaign, error) {
	o := experiments.Options{Seed: seed, NyxN: nyxN}
	var specs []core.CampaignSpec
	for _, cell := range []string{"nyx", "qmcpack"} {
		w, err := experiments.NewPipelineWorkload(cell, o)
		if err != nil {
			return nil, err
		}
		layout, err := experiments.TierLayout(cell)
		if err != nil {
			return nil, err
		}
		armed := append([]string(nil), layout.Tiers[experiments.TierScratch]...)
		sort.Strings(armed)
		for _, backend := range []string{"mem", "object", "latency"} {
			wb := w
			wb.NewFS = layout.FSFactory(backend)
			for _, name := range rwModels {
				m, ok := core.Lookup(name)
				if !ok {
					return nil, fmt.Errorf("unregistered fault model %q", name)
				}
				specs = append(specs, core.CampaignSpec{
					Key:      cell + "/" + backend + "/" + m.Short(),
					WorldKey: cell + "@" + backend,
					Workload: wb,
					Config: core.CampaignConfig{
						Fault: core.Config{Model: m}, Runs: rwRuns, Seed: seed, ArmMounts: armed,
					},
				})
			}
		}
	}
	return newEngineCampaign(specs)
}

func setupAdaptive(seed uint64) (campaign, error) {
	w, err := experiments.NewWorkload("MT2", experiments.Options{Seed: seed})
	if err != nil {
		return nil, err
	}
	var specs []core.CampaignSpec
	for _, m := range experiments.Fig7Models() {
		specs = append(specs, core.CampaignSpec{
			Key:      "MT2/" + m.Short(),
			WorldKey: "MT2",
			Workload: w,
			Config: core.CampaignConfig{
				Fault: core.Config{Model: m}, Runs: adaptiveBudget, Seed: seed,
				Stop: &stats.StopRule{TargetHalfWidth: adaptiveHW},
			},
		})
	}
	return newEngineCampaign(specs)
}

// distCampaign runs a grid through a campaignd coordinator served over
// loopback HTTP to in-process workers, each with its own warmed engine.
type distCampaign struct {
	specs    []experiments.WireSpec
	manifest results.Manifest
	engines  []*core.Engine
}

func setupDistributed(seed uint64) (campaign, error) {
	var specs []experiments.WireSpec
	for _, cell := range []string{"nyx", "qmcpack"} {
		for _, m := range experiments.Fig7Models() {
			specs = append(specs, experiments.WireSpec{
				Cell: cell, Model: m.Name(), Runs: distRuns, Seed: seed, NyxN: nyxN,
			}.Normalized())
		}
	}
	man, err := campaignd.ManifestFor(specs)
	if err != nil {
		return nil, err
	}
	c := &distCampaign{specs: specs, manifest: man}
	for i := 0; i < slots; i++ {
		cspecs := make([]core.CampaignSpec, len(specs))
		for j, ws := range specs {
			if cspecs[j], err = ws.CampaignSpec(); err != nil {
				return nil, err
			}
		}
		e, err := warmEngine(1, cspecs)
		if err != nil {
			return nil, err
		}
		c.engines = append(c.engines, e)
	}
	return c, nil
}

func (c *distCampaign) rep(tr *tracer) (res repResult, err error) {
	defer func() {
		if err != nil {
			res.failed = len(c.specs)*distRuns - res.runs
		}
	}()
	dir, err := os.MkdirTemp("", "ffisbench-store-*")
	if err != nil {
		return res, err
	}
	defer os.RemoveAll(dir)

	t0 := time.Now()
	st, err := results.Create(dir, c.manifest)
	if err != nil {
		return res, err
	}
	coord, err := campaignd.NewCoordinator(st, c.specs, time.Minute)
	if err != nil {
		return res, err
	}
	defer coord.Close()
	handler := coord.Handler()
	if tr != nil {
		handler = tr.handler(handler)
	}
	srv := httptest.NewServer(handler)
	defer srv.Close()
	client := srv.Client()
	if tr != nil {
		client = tr.client(client)
	}

	errs := make([]error, len(c.engines))
	var wg sync.WaitGroup
	for i, e := range c.engines {
		// The worker wires its own bus onto an engine without one.
		e.Events = nil
		w := &campaignd.Worker{
			ID:          fmt.Sprintf("w%d", i+1),
			Coordinator: srv.URL,
			Client:      client,
			Engine:      e,
			Jobs:        1,
			Prefetch:    true,
			Poll:        5 * time.Millisecond,
			Heartbeat:   100 * time.Millisecond,
		}
		if tr != nil {
			w.Events = tr.bus()
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = w.Run(context.Background())
		}(i)
	}
	wg.Wait()
	if tr != nil {
		tr.closeBuses()
	}
	res.wall = time.Since(t0)
	if err := errors.Join(errs...); err != nil {
		return res, err
	}
	if !coord.Done() {
		return res, errors.New("coordinator not done after every worker exited")
	}
	res.tallies = tallies{}
	for _, ws := range c.specs {
		r, err := st.Result(ws.Key)
		if err != nil {
			return res, err
		}
		if len(r.Records) != ws.Runs {
			return res, fmt.Errorf("%s: store holds %d records, want exactly %d", ws.Key, len(r.Records), ws.Runs)
		}
		res.runs += ws.Runs
		res.tallies[ws.Key] = countsOf(r.Tally)
	}
	if tr != nil {
		tr.ingested(res.runs)
	}
	return res, nil
}
