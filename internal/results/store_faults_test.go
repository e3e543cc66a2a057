package results

import (
	"bytes"
	"os"
	"reflect"
	"testing"

	"ffis/internal/core"
	"ffis/internal/stats"
	"ffis/internal/vfs"
)

// faultKey is the one spec the store fault test streams.
const faultKey = "MT2/BF"

// faultSpec is the spec's content, computed once: the pinned MT2 bit-flip
// record file, its header and its 20 records.
func faultSpec(t *testing.T) (raw []byte, h Header, recs []Record) {
	t.Helper()
	raw, err := os.ReadFile("testdata/pr5_mt2_BF.jsonl.golden")
	if err != nil {
		t.Fatal(err)
	}
	sf, err := parseSpecFile(raw)
	if err != nil {
		t.Fatal(err)
	}
	return raw, sf.header, sf.records
}

// streamSpec opens the spec's sink, begins it with h, appends the records
// the store does not hold yet, and finalizes.
func streamSpec(st *Store, h Header, recs []Record) error {
	s, err := st.SpecSink(faultKey, len(recs))
	if err != nil {
		return err
	}
	defer s.Close()
	if err := s.BeginHeader(h); err != nil {
		return err
	}
	for _, rec := range recs[s.Persisted():] {
		if err := s.Append(rec); err != nil {
			return err
		}
	}
	return s.Finalize(0)
}

// storeLifecycle is the store's whole write path: create, adopt the spec,
// stream it, finalize. lockDir is the host directory of the store's lock
// file, which the store's own files on fsys do not hold.
func storeLifecycle(fsys vfs.FS, lockDir string, h Header, recs []Record) error {
	st, err := create(fsys, lockDir, Manifest{Seed: h.Seed, Runs: h.Runs})
	if err != nil {
		return err
	}
	if err := adopt(st, nil, faultKey); err != nil {
		return err
	}
	return streamSpec(st, h, recs)
}

// recoverSpec reopens fsys, resumes the spec unless it is finalized, and
// loads it: what a -resume after a crash does.
func recoverSpec(fsys vfs.FS, h Header, recs []Record) (SpecData, error) {
	st, err := open(fsys, "")
	if err != nil {
		return SpecData{}, err
	}
	if !st.finalized(faultKey) {
		if err := streamSpec(st, h, recs); err != nil {
			return SpecData{}, err
		}
	}
	data, ok, err := st.LoadSpec(faultKey)
	if err == nil && !ok {
		err = os.ErrNotExist // a finalized spec with no header would be a store bug
	}
	return data, err
}

// storeFiles reads every file of the store.
func storeFiles(t *testing.T, fsys vfs.FS) map[string][]byte {
	t.Helper()
	files := map[string][]byte{}
	err := vfs.Walk(fsys, "/", func(p string, _ vfs.FileInfo) error {
		b, err := vfs.ReadFile(fsys, p)
		files[p] = b
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestStoreUnderWriteFaults arms each write-path fault on each of the
// store's own write instances in turn, then recovers the store unarmed as a
// resume would. A dropped or shorn write must end in a store byte-identical
// to the fault-free one, or fail loudly in Open, SpecSink, Finalize or
// LoadSpec; loading a record that differs from the fault-free record fails
// the test. Bit-flip is only counted: a record line carries no checksum, so
// a flip that keeps the line valid JSON loads as a wrong record.
func TestStoreUnderWriteFaults(t *testing.T) {
	pinned, h, recs := faultSpec(t)
	lockDir := t.TempDir()
	clean := vfs.NewMemFS()
	if err := storeLifecycle(clean, lockDir, h, recs); err != nil {
		t.Fatal(err)
	}
	want := storeFiles(t, clean)
	if !bytes.Equal(want[recordName(faultKey, finalExt)], pinned) {
		t.Fatal("the fault-free store does not reproduce the pinned record file")
	}

	profiler := core.Disarmed(core.Config{Model: core.DroppedWrite}.Signature())
	if err := storeLifecycle(profiler.Wrap(vfs.NewMemFS()), lockDir, h, recs); err != nil {
		t.Fatal(err)
	}
	writes := profiler.Count()
	if writes < int64(len(recs))+2 {
		t.Fatalf("store lifecycle counted %d write instances, want at least %d", writes, len(recs)+2)
	}

	for _, model := range []core.Model{core.DroppedWrite, core.ShornWrite, core.BitFlip} {
		sig := core.Config{Model: model}.Signature()
		var loud, silent, wrongLoads int
		for target := int64(0); target < writes; target++ {
			mem := vfs.NewMemFS()
			inj := core.NewInjector(sig, target, stats.NewRNG(uint64(target)+1))
			// The lifecycle may fail under its own fault; recovery decides.
			_ = storeLifecycle(inj.Wrap(mem), lockDir, h, recs)
			if _, fired := inj.Fired(); !fired {
				t.Fatalf("%s: write instance %d never fired", model.Name(), target)
			}
			data, err := recoverSpec(mem, h, recs)
			if err != nil {
				loud++
				continue
			}
			wrong := !reflect.DeepEqual(data.Header, h) || !reflect.DeepEqual(data.Records, recs)
			switch {
			case !wrong && reflect.DeepEqual(storeFiles(t, mem), want):
			case model == core.BitFlip:
				silent++
				if wrong {
					wrongLoads++
				}
			default:
				t.Errorf("%s at write instance %d: recovered without error, yet the store differs from the fault-free one (wrong header or record loaded: %v)",
					model.Name(), target, wrong)
			}
		}
		t.Logf("%s over %d write instances: %d recovered byte-identical, %d failed loudly, %d recovered a different store without error (%d loading a wrong header or record)",
			model.Name(), writes, int(writes)-loud-silent, loud, silent, wrongLoads)
	}
}
