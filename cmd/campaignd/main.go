// Command campaignd is the distributed campaign coordinator: it owns a
// results store, decomposes a grid of campaign specs into work leases,
// serves them to ffis-worker processes over HTTP, ingests their record
// streams in strict index order, and re-queues any lease whose heartbeats
// lapse. The final store is byte-identical to a single-machine run of the
// same grid at the same seed — workers contribute compute, never state.
//
// Usage:
//
//	campaignd -out ./res -addr :8080                 # default Figure 7 grid
//	campaignd -out ./res -specs grid.json            # explicit spec grid
//	campaignd -out ./res -resume -specs grid.json    # continue after restart
//	campaignd -out ./res -gen > grid.json            # print the default grid
//
// The spec file is either a JSON array of wire specs or JSONL, one spec
// object per line; a field the wire spec does not have fails the file:
//
//	{"cell": "MT2", "model": "bit-flip", "runs": 1000, "seed": 2021}
//	{"cell": "MT2", "model": "read-bit-flip", "runs": 1000, "seed": 2021, "mounts": ["/proj=object"], "arm_mounts": ["/proj"]}
//
// Watch progress with GET /progress, live operational metrics (ingest
// throughput, lease churn, per-run stage latency averages) with
// GET /metrics, and render live tables with GET /report?format=markdown.
// With -token set, every route requires the matching bearer token.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"ffis/internal/campaignd"
	"ffis/internal/experiments"
	"ffis/internal/results"
)

func main() {
	var (
		specFile = flag.String("specs", "", "spec grid file (JSON array or JSONL of wire specs); empty serves the default Figure 7 grid")
		outDir   = flag.String("out", "", "results store directory (required)")
		resume   = flag.Bool("resume", false, "resume the existing store at -out instead of creating a fresh one")
		addr     = flag.String("addr", ":8080", "HTTP listen address")
		leaseTTL = flag.Duration("lease-ttl", campaignd.DefaultLeaseTTL, "lease expiry without a heartbeat; lapsed leases re-queue from the first missing run index")
		token    = flag.String("token", "", "shared bearer secret; with it set, every route requires \"Authorization: Bearer <token>\"")
		runs     = flag.Int("runs", 1000, "runs per cell for the default grid (ignored with -specs)")
		seed     = flag.Uint64("seed", 2021, "campaign seed for the default grid (ignored with -specs)")
		gen      = flag.Bool("gen", false, "print the default Figure 7 spec grid as JSON and exit")
	)
	flag.Parse()

	die := func(err error) {
		fmt.Fprintf(os.Stderr, "campaignd: %v\n", err)
		os.Exit(1)
	}

	var specs []experiments.WireSpec
	if *specFile != "" {
		f, err := os.Open(*specFile)
		if err != nil {
			die(err)
		}
		specs, err = experiments.ParseWireSpecs(f)
		f.Close()
		if err != nil {
			die(err)
		}
	} else {
		specs = experiments.Fig7WireGrid(*runs, *seed)
	}
	if *gen {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(specs); err != nil {
			die(err)
		}
		return
	}
	if *outDir == "" {
		fmt.Fprintln(os.Stderr, "campaignd: -out DIR is required")
		os.Exit(2)
	}
	man, err := campaignd.ManifestFor(specs)
	if err != nil {
		die(err)
	}
	st, err := results.CreateOrResume(*outDir, *resume, man)
	if err != nil {
		die(err)
	}
	coord, err := campaignd.NewCoordinator(st, specs, *leaseTTL)
	if err != nil {
		die(err)
	}
	coord.AuthToken = *token

	fmt.Printf("campaignd: serving %d specs (seed %d, %d runs per cell) on %s, lease TTL %s\n",
		len(specs), man.Seed, man.Runs, *addr, *leaseTTL)
	fmt.Printf("campaignd: store %s; watch GET /progress, render GET /report?format=markdown\n", st.Dir())
	// SIGINT or SIGTERM stops serving, closes the sinks and releases the
	// store lock. Notify also catches a SIGINT a background job ignores.
	sig, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	srv := &http.Server{Addr: *addr, Handler: coord.Handler(), ReadHeaderTimeout: 10 * time.Second}
	served := make(chan error, 1)
	go func() { served <- srv.ListenAndServe() }()
	select {
	case err = <-served:
	case <-sig.Done():
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		err = srv.Shutdown(ctx)
	}
	if cerr := coord.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		die(err)
	}
}
