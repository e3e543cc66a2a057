// Nyx end-to-end: simulate a baryon density field, persist it as HDF5,
// inject a dropped write into the I/O path, run the Friends-of-Friends halo
// finder, and show that the corruption is an SDC for the halo catalog yet
// is caught by the paper's average-value detection method.
package main

import (
	"fmt"
	"log"

	"ffis/internal/apps/nyx"
	"ffis/internal/classify"
	"ffis/internal/core"
)

func main() {
	sim := nyx.DefaultSim()
	sim.N = 32
	sim.NumHalos = 6
	app, err := nyx.NewApp(sim, nyx.DefaultHalo())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("golden halo catalog:\n%s\n", app.Golden())

	// Inject a dropped write into the middle of the data stream.
	var e core.Engine
	spec := core.CampaignSpec{
		Workload: app.Workload(),
		Config:   core.CampaignConfig{Fault: core.Config{Model: core.MustModel("dropped-write")}},
	}
	count, err := e.Profile(spec)
	if err != nil {
		log.Fatal(err)
	}
	target := count / 2
	rec, world, err := e.Replay(spec, 0, target)
	if err != nil {
		log.Fatal(err)
	}
	if rec.RunErr != nil {
		log.Fatal(rec.RunErr)
	}
	fmt.Printf("injected: %s (write %d of %d)\n\n", rec.Mutation, target, count)

	cat, text, err := app.Analyze(world, new(nyx.Scratch))
	if err != nil {
		log.Fatalf("halo finder crashed: %v", err)
	}
	fmt.Printf("faulty halo catalog:\n%s\n", text)

	switch rec.Outcome {
	case classify.Benign:
		fmt.Println("outcome: benign")
	case classify.Detected:
		fmt.Println("outcome: detected (no halos found)")
	case classify.SDC:
		fmt.Println("outcome: SDC — the catalog silently changed")
	}
	fmt.Printf("average-value method: mean=%.6f, flagged=%v (tolerance %.1f%%)\n",
		cat.Mean, nyx.DetectByAverage(cat.Mean), 100*nyx.AvgTolerance)
}
