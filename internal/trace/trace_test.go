package trace

import (
	"strings"
	"testing"

	"ffis/internal/apps/nyx"
	"ffis/internal/vfs"
)

func TestRecorderCapturesSequence(t *testing.T) {
	rec := NewRecorder(vfs.NewMemFS())
	rec.MkdirAll("/d")
	f, err := rec.Create("/d/f")
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte("hello"))
	f.WriteAt([]byte("HE"), 0)
	f.Close()
	vfs.ReadFile(rec, "/d/f")

	log := rec.Log()
	if len(log) < 5 {
		t.Fatalf("log too short: %d ops", len(log))
	}
	for i, op := range log {
		if op.Seq != i {
			t.Fatalf("sequence broken at %d: %+v", i, op)
		}
	}
	// First write is sequential at offset 0 with size 5.
	var w *Op
	for i := range log {
		if log[i].Primitive == vfs.PrimWrite {
			w = &log[i]
			break
		}
	}
	if w == nil || w.Offset != 0 || w.Size != 5 {
		t.Fatalf("first write: %+v", w)
	}
}

func TestRecorderRecordsErrors(t *testing.T) {
	rec := NewRecorder(vfs.NewMemFS())
	rec.Open("/missing")
	log := rec.Log()
	if len(log) != 1 || !log[0].Err {
		t.Fatalf("error not recorded: %+v", log)
	}
}

func TestAnalyzeWritePattern(t *testing.T) {
	rec := NewRecorder(vfs.NewMemFS())
	f, _ := rec.Create("/f")
	f.Write(make([]byte, 512))         // offset 0, sequential by definition
	f.Write(make([]byte, 512))         // offset 512, sequential
	f.WriteAt(make([]byte, 100), 0)    // overwrite
	f.WriteAt(make([]byte, 100), 5000) // jump
	f.Close()

	p := Analyze(rec.Log())
	fileStats := p.Files["/f"]
	if fileStats.Writes != 4 {
		t.Fatalf("writes = %d", fileStats.Writes)
	}
	if fileStats.Sequential < 2 {
		t.Fatalf("sequential = %d, want >= 2", fileStats.Sequential)
	}
	if fileStats.OverwriteOps != 1 {
		t.Fatalf("overwrites = %d", fileStats.OverwriteOps)
	}
	if p.TotalWrite != 1224 {
		t.Fatalf("total write = %d", p.TotalWrite)
	}
	if p.ByPrim[vfs.PrimWrite] != 4 {
		t.Fatalf("write prim count = %d", p.ByPrim[vfs.PrimWrite])
	}
}

func TestProfileRender(t *testing.T) {
	rec := NewRecorder(vfs.NewMemFS())
	vfs.WriteFile(rec, "/x", []byte("abc"))
	out := Analyze(rec.Log()).Render()
	if !strings.Contains(out, "/x") || !strings.Contains(out, "writes=1") {
		t.Fatalf("render:\n%s", out)
	}
}

// TestProfileNyxWorkload profiles the real Nyx writer and checks the
// pattern the campaign design assumes: device-block-sized sequential data
// writes followed by one big metadata write.
func TestProfileNyxWorkload(t *testing.T) {
	sim := nyx.DefaultSim()
	sim.N = 24
	sim.NumHalos = 4
	field := sim.Generate()
	rec := NewRecorder(vfs.NewMemFS())
	rec.MkdirAll("/plt00000")
	if err := nyx.WriteDataset(rec, "/plt00000/d.h5", field, sim.N); err != nil {
		t.Fatal(err)
	}
	p := Analyze(rec.Log())
	fileStats := p.Files["/plt00000/d.h5"]
	wantData := 24 * 24 * 24 * 8
	if fileStats.WriteBytes < int64(wantData) {
		t.Fatalf("write bytes = %d, want >= %d", fileStats.WriteBytes, wantData)
	}
	// The dominant write size must be the 4 KiB device block.
	if p.WriteSizes.Counts[8] == 0 { // bin [4096,4608)
		t.Fatalf("no 4 KiB writes recorded: %v", p.WriteSizes.Counts)
	}
}

// TestRecorderAnswersNoOrigin: every operation the trace sees must be
// issued, so a recorder over a cloned world answers no vfs.Origin token.
func TestRecorderAnswersNoOrigin(t *testing.T) {
	src := vfs.NewMemFS()
	if err := vfs.WriteFile(src, "/f", []byte("x")); err != nil {
		t.Fatal(err)
	}
	world := src.Clone()
	if vfs.Origin(world, "/f") == nil {
		t.Fatal("the cloned world answered no token")
	}
	if vfs.Origin(NewRecorder(world), "/f") != nil {
		t.Fatal("a recorder answered a token")
	}
}
