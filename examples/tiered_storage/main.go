// Tiered storage: mount separate backends for the scratch and output tiers
// of an HPC storage hierarchy, aim a fault signature at ONE tier, and watch
// the other tiers stay clean — then run the full tiered placement sweep for
// two of the paper's workloads, and finally cross placements with backend
// *types*: the same grid re-run under an object store (flat keys,
// eventual consistency) and under latency-modeled tiers whose simulated
// clock prices every operation.
//
// This is the scenario the paper's flat FFISFS mount cannot express: real
// systems put plotfiles on a burst buffer and final products on the
// parallel file system, and a dying SSD corrupts only the I/O routed to it.
package main

import (
	"fmt"
	"log"

	"ffis/internal/core"
	"ffis/internal/experiments"
	"ffis/internal/stats"
	"ffis/internal/vfs"
)

func main() {
	// --- Part 1: the mount table, by hand. ---------------------------------
	// A three-tier world: home directories on the root backend, a burst
	// buffer at /scratch, campaign storage at /out.
	world := vfs.NewMountFS(vfs.NewMemFS())
	for _, tier := range []string{"/scratch", "/out"} {
		if err := world.Mount(tier, vfs.NewMemFS()); err != nil {
			log.Fatal(err)
		}
	}
	for _, mp := range world.Mounts() {
		fmt.Printf("mounted backend at %s\n", mp.Path)
	}

	// The application sees one namespace (transparency, R1) ...
	app := func(fs vfs.FS) error {
		if err := vfs.WriteFile(fs, "/scratch/checkpoint.dat", make([]byte, 4096)); err != nil {
			return err
		}
		return vfs.WriteFile(fs, "/out/result.dat", []byte("final answer: 42\n"))
	}

	// ... but the injector is armed on the scratch tier only: the view
	// `armed` shares storage with `world`, differing only in the wrapper.
	sig := core.Config{Model: core.MustModel("bit-flip")}.Signature()
	inj := core.NewInjector(sig, 0, stats.NewRNG(2021))
	armed, err := world.WithInterposed("/scratch", inj.Wrap)
	if err != nil {
		log.Fatal(err)
	}
	if err := app(armed); err != nil {
		log.Fatal(err)
	}
	if mut, fired := inj.Fired(); fired {
		fmt.Printf("fault fired on the scratch tier: %s\n", mut)
	}
	result, err := vfs.ReadFile(world, "/out/result.dat")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("output tier untouched: %q\n", result)

	// Cross-mount renames fail like EXDEV on real tiered storage.
	if err := world.Rename("/scratch/checkpoint.dat", "/out/checkpoint.dat"); err != nil {
		fmt.Printf("cross-tier rename rejected: %v\n", err)
	}

	// --- Part 2: the placement sweep. --------------------------------------
	// Sweep dropped-write faults across {all, scratch-only, output-only}
	// placements for Nyx (writes plotfiles to scratch) and Montage stage 4
	// (writes the mosaic to the output tier), at demo scale.
	fmt.Println()
	table, _, err := experiments.Tiered([]string{"nyx", "MT4"}, core.MustModel("dropped-write"), experiments.Options{
		Runs: 40,
		Seed: 2021,
		NyxN: 24,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(table)

	// --- Part 3: backend × placement. --------------------------------------
	// The same placement grid for Montage stage 2, re-run under each hermetic
	// backend type. The latency backend's simulated clock (burst-buffer
	// pricing on scratch mounts, parallel-FS pricing elsewhere) reports
	// per-cell simulated I/O time in the sim-ms column — at zero wall-clock
	// cost, and bit-identically across worker counts.
	fmt.Println()
	table, _, err = experiments.Tiered([]string{"MT2"}, core.MustModel("dropped-write"), experiments.Options{
		Runs:     40,
		Seed:     2021,
		Backends: []string{"mem", "object", "latency"},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(table)

	// A taste of what the object backend models, by hand: overwriting a key
	// with a consistency lag serves the previous version to the next opens
	// while Stat already answers from the new generation — the LIST/HEAD vs
	// GET divergence of a real object store, as a deterministic open-count.
	obj := vfs.NewObjectFS()
	obj.SetConsistencyLag(1)
	if err := obj.MkdirAll("/bucket"); err != nil {
		log.Fatal(err)
	}
	for _, v := range []string{"v1", "v2-longer"} {
		if err := vfs.WriteFile(obj, "/bucket/key", []byte(v)); err != nil {
			log.Fatal(err)
		}
	}
	stale, _ := vfs.ReadFile(obj, "/bucket/key")
	info, _ := obj.Stat("/bucket/key")
	fresh, _ := vfs.ReadFile(obj, "/bucket/key")
	fmt.Printf("\nobject store after overwrite (lag 1): GET %q, HEAD size %d, next GET %q\n",
		stale, info.Size, fresh)
}
