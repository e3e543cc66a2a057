package experiments

import (
	"strings"
	"testing"

	"ffis/internal/classify"
	"ffis/internal/core"
)

// smallOpts keeps the experiment harness tests fast: tiny grid, few runs,
// strided metadata sweep.
func smallOpts() Options {
	return Options{
		Runs:       6,
		Seed:       2021,
		NyxN:       24,
		MetaStride: 13,
	}
}

// TestTable1ListsAllModels: Table I keeps the paper's primitive column for
// its three models, lists every registered model, and stars exactly the
// one primitive each model faults here.
func TestTable1ListsAllModels(t *testing.T) {
	out := Table1()
	for _, want := range []string{"FFIS_write*, FFIS_mknod, FFIS_chmod, FFIS_truncate",
		"FFIS_write*, FFIS_mknod, FFIS_chmod ", "no application here issues mknod, chmod or truncate"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table I missing %q", want)
		}
	}
	for _, m := range core.AllModels() {
		var row string
		for _, line := range strings.Split(out, "\n") {
			if strings.HasPrefix(line, m.Name()+" ") {
				row = line
			}
		}
		if row == "" {
			t.Errorf("Table I has no row for %s", m.Name())
			continue
		}
		if strings.Count(row, "*") != 1 || !strings.Contains(row, "FFIS_"+string(m.Host())+"*") {
			t.Errorf("%s row does not star its one primitive %s: %q", m.Name(), m.Host(), row)
		}
	}
}

func TestTable2ListsAllApps(t *testing.T) {
	out := Table2()
	for _, want := range []string{"Nyx", "QMCPACK", "Montage"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table II missing %q", want)
		}
	}
}

func TestTable3Small(t *testing.T) {
	out, res, err := Table3(smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Table III") {
		t.Fatal("missing title")
	}
	if res.Tally.Total() == 0 {
		t.Fatal("no cases")
	}
}

func TestTable4Small(t *testing.T) {
	out, effects, err := Table4(smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(effects) != 6 || !strings.Contains(out, "Exponent Bias") {
		t.Fatalf("table 4: %d effects\n%s", len(effects), out)
	}
}

func TestNewWorkloadAllCells(t *testing.T) {
	for _, cell := range Fig7Cells {
		w, err := NewWorkload(cell, smallOpts())
		if err != nil {
			t.Fatalf("%s: %v", cell, err)
		}
		if w.Name == "" || w.Run == nil || w.Classify == nil {
			t.Fatalf("%s: incomplete workload", cell)
		}
	}
	if _, err := NewWorkload("bogus", smallOpts()); err == nil {
		t.Fatal("bogus cell accepted")
	}
}

func TestFig7CellNyxDW(t *testing.T) {
	o := smallOpts()
	res, err := Fig7Cell(WireSpec{Cell: "nyx", Model: "dropped-write", Runs: o.Runs, Seed: o.Seed, NyxN: o.NyxN}, o)
	if err != nil {
		t.Fatal(err)
	}
	if res.Tally.Count(classify.Benign) != 0 {
		t.Fatalf("nyx/DW produced benign: %s", res.Tally.String())
	}
}

func TestFig5Renders(t *testing.T) {
	out, images, err := Fig5(smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"original", "exponent-bias", "ard-shift"} {
		img, ok := images[key]
		if !ok || len(img) == 0 {
			t.Fatalf("missing image %q", key)
		}
		if !strings.HasPrefix(string(img), "P5\n") {
			t.Fatalf("%s is not a PGM", key)
		}
	}
	if !strings.Contains(out, "exponent-bias") {
		t.Fatal("summary incomplete")
	}
}

func TestFig6Renders(t *testing.T) {
	out, err := Fig6(smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "candidates") {
		t.Fatalf("summary: %s", out)
	}
}

func TestFig8Renders(t *testing.T) {
	out, err := Fig8(smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Figure 8", "original", "faulty", "average-value detector"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

func TestFig9Renders(t *testing.T) {
	out, images, err := Fig9(smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := images["faulty"]; !ok {
		t.Fatal("missing faulty mosaic")
	}
	if !strings.Contains(out, "detected") {
		t.Fatalf("summary: %s", out)
	}
}
