// Montage pipeline: build the 10-tile m101 mosaic, then inject a shorn
// write into each of the four I/O-intensive stages in turn, showing how
// each stage bounds its own faults (the paper's stage-decoupling
// observation).
package main

import (
	"fmt"
	"log"

	"ffis/internal/apps/montage"
	"ffis/internal/classify"
	"ffis/internal/core"
)

func main() {
	cfg := montage.DefaultConfig()
	cfg.Tiles = 6
	cfg.TileW, cfg.TileH = 48, 48
	cfg.MosaicW, cfg.MosaicH = 110, 110

	var e core.Engine
	for _, stage := range montage.Stages() {
		app, err := montage.NewApp(cfg, stage)
		if err != nil {
			log.Fatal(err)
		}
		spec := core.CampaignSpec{
			Workload: app.Workload(),
			Config:   core.CampaignConfig{Fault: core.Config{Model: core.MustModel("shorn-write")}},
		}
		count, err := e.Profile(spec)
		if err != nil {
			log.Fatal(err)
		}

		// Inject into three spots of the stage's write stream.
		var tally classify.Tally
		for i, frac := range []int64{4, 2, 4 * 3} {
			target := count * frac / 16
			if target >= count {
				target = count - 1
			}
			rec, _, err := e.Replay(spec, i, target)
			if err != nil {
				log.Fatal(err)
			}
			tally.Add(rec.Outcome)
		}
		fmt.Printf("%-10s %3d writes profiled | shorn-write outcomes: %s | golden min=%.5f\n",
			stage, count, tally.String(), app.GoldenMin())
	}
	fmt.Println("\neach stage re-reads its inputs from storage, so faults stay bounded within the stage's products")
}
