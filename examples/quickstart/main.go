// Quickstart: arm FFIS with a bit-flip fault signature, profile a tiny
// workload, inject into one randomly chosen write, and observe the
// corruption — the minimal end-to-end use of the public pieces.
package main

import (
	"fmt"
	"log"

	"ffis/internal/core"
	"ffis/internal/stats"
	"ffis/internal/vfs"
)

func main() {
	// The workload: an "application" that writes four 32-byte records.
	workload := func(fs vfs.FS) error {
		f, err := fs.Create("/out/records.bin")
		if err != nil {
			return err
		}
		defer f.Close()
		for rec := 0; rec < 4; rec++ {
			buf := make([]byte, 32)
			for i := range buf {
				buf[i] = byte(rec)
			}
			if _, err := f.Write(buf); err != nil {
				return err
			}
		}
		return nil
	}

	// 1. Fault generator: build the fault signature (bit flip @ write).
	sig := core.Config{Model: core.MustModel("bit-flip")}.Signature()
	fmt.Printf("fault signature: %s (flip %d consecutive bits)\n", sig, sig.Feature.FlipBits)

	// 2. I/O profiler: a fault-free run through a disarmed injector counts
	// the dynamic executions of the target primitive.
	prof := core.Disarmed(sig)
	fs := vfs.NewMemFS()
	fs.MkdirAll("/out")
	if err := workload(prof.Wrap(fs)); err != nil {
		log.Fatal(err)
	}
	count := prof.Count()
	fmt.Printf("profiler: workload performs %d writes\n", count)

	// 3. Fault injector: corrupt one uniformly chosen write instance.
	rng := stats.NewRNG(42)
	target := int64(rng.Intn(int(count)))
	fs = vfs.NewMemFS()
	fs.MkdirAll("/out")
	inj := core.NewInjector(sig, target, rng)
	if err := workload(inj.Wrap(fs)); err != nil {
		log.Fatal(err)
	}
	mut, fired := inj.Fired()
	fmt.Printf("injector: targeted write #%d, fired=%v\n", target, fired)
	fmt.Printf("mutation: %s\n", mut)

	// Observe the corruption.
	data, err := vfs.ReadFile(fs, "/out/records.bin")
	if err != nil {
		log.Fatal(err)
	}
	for rec := 0; rec < 4; rec++ {
		diff := 0
		for i := 0; i < 32; i++ {
			if data[rec*32+i] != byte(rec) {
				diff++
			}
		}
		marker := ""
		if diff > 0 {
			marker = fmt.Sprintf("   <-- %d corrupted byte(s)", diff)
		}
		fmt.Printf("record %d: %d bytes differ from golden%s\n", rec, diff, marker)
	}
}
