package qmcpack

import (
	"bytes"
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"

	"ffis/internal/stats"
)

// refAnalyze is Analyze as it stood while it split and parsed the whole
// file in one loop. AnalyzeDMC must reproduce it bit for bit.
func refAnalyze(content string) (Analysis, error) {
	var a Analysis
	lines := strings.Split(content, "\n")
	type parsed struct{ e, w float64 }
	var data []parsed
	for _, line := range lines {
		trimmed := strings.TrimSpace(line)
		if trimmed == "" || strings.HasPrefix(trimmed, "#") {
			continue
		}
		a.TotalRows++
		fields := strings.Fields(trimmed)
		if len(fields) < 4 {
			a.Skipped++
			continue
		}
		e, err1 := strconv.ParseFloat(fields[1], 64)
		w, err2 := strconv.ParseFloat(fields[3], 64)
		if err1 != nil || err2 != nil || math.IsNaN(e) || math.IsNaN(w) || w <= 0 {
			a.Skipped++
			continue
		}
		data = append(data, parsed{e, w})
	}
	if len(data) == 0 {
		return a, fmt.Errorf("qmcpack: no parseable rows in scalar file")
	}
	skip := int(float64(len(data)) * EquilibrationFraction)
	data = data[skip:]
	if len(data) == 0 {
		return a, fmt.Errorf("qmcpack: no rows left after equilibration")
	}
	var sumWE, sumW, sumWE2 float64
	for _, d := range data {
		sumWE += d.w * d.e
		sumW += d.w
		sumWE2 += d.w * d.e * d.e
	}
	a.Rows = len(data)
	a.Energy = sumWE / sumW
	variance := sumWE2/sumW - a.Energy*a.Energy
	if variance < 0 {
		variance = 0
	}
	a.ErrorBar = math.Sqrt(variance / float64(len(data)))
	return a, nil
}

// sameAnalysis reports how got differs from want, field by field with
// floats compared by their bits, or "" when they are identical.
func sameAnalysis(got Analysis, gotErr error, want Analysis, wantErr error) string {
	errText := func(err error) string {
		if err == nil {
			return "<nil>"
		}
		return err.Error()
	}
	switch {
	case errText(gotErr) != errText(wantErr):
		return fmt.Sprintf("error %q, want %q", errText(gotErr), errText(wantErr))
	case got.Rows != want.Rows || got.Skipped != want.Skipped || got.TotalRows != want.TotalRows:
		return fmt.Sprintf("rows/skipped/total %d/%d/%d, want %d/%d/%d",
			got.Rows, got.Skipped, got.TotalRows, want.Rows, want.Skipped, want.TotalRows)
	case math.Float64bits(got.Energy) != math.Float64bits(want.Energy):
		return fmt.Sprintf("energy %v, want %v", got.Energy, want.Energy)
	case math.Float64bits(got.ErrorBar) != math.Float64bits(want.ErrorBar):
		return fmt.Sprintf("error bar %v, want %v", got.ErrorBar, want.ErrorBar)
	}
	return ""
}

// checkAnalyzeDMC fails t when AnalyzeDMC or Analyze on raw differs from
// the reference.
func checkAnalyzeDMC(t *testing.T, app *App, name string, raw []byte) {
	t.Helper()
	want, wantErr := refAnalyze(string(raw))
	got, gotErr := app.AnalyzeDMC(raw)
	if d := sameAnalysis(got, gotErr, want, wantErr); d != "" {
		t.Errorf("%s: AnalyzeDMC %s", name, d)
	}
	got, gotErr = Analyze(string(raw))
	if d := sameAnalysis(got, gotErr, want, wantErr); d != "" {
		t.Errorf("%s: Analyze %s", name, d)
	}
}

// TestAnalyzeDMCMatchesAnalyze checks AnalyzeDMC against the whole-file
// reference on the golden DMC file and on the damage storage faults leave
// in it: bit flips, zeroed and shorn 4 KiB write blocks, truncations,
// extensions, random runs, and newlines inserted or deleted (which move
// every later line against the golden).
func TestAnalyzeDMCMatchesAnalyze(t *testing.T) {
	app := newTestApp(t)
	golden := bytes.Clone(app.dmcContent)
	mutate := func(name string, f func(b []byte) []byte) {
		checkAnalyzeDMC(t, app, name, f(bytes.Clone(golden)))
	}
	mutate("golden", func(b []byte) []byte { return b })
	rng := stats.NewRNG(31)
	for i := 0; i < 400; i++ {
		off, bit := rng.Intn(len(golden)), rng.Intn(8)
		mutate(fmt.Sprintf("flip %d.%d", off, bit), func(b []byte) []byte { b[off] ^= 1 << bit; return b })
	}
	for _, off := range []int{0, 1, len(golden) / 2, len(golden) - 2, len(golden) - 1} {
		for bit := 0; bit < 8; bit++ {
			mutate(fmt.Sprintf("flip %d.%d", off, bit), func(b []byte) []byte { b[off] ^= 1 << bit; return b })
		}
	}
	for off := 0; off < len(golden); off += flushBytes {
		end := min(off+flushBytes, len(golden))
		mutate(fmt.Sprintf("zero block %d", off), func(b []byte) []byte { clear(b[off:end]); return b })
		for _, keep := range []int{1, flushBytes / 2, flushBytes - 1} {
			if off+keep < end {
				mutate(fmt.Sprintf("shorn block %d keep %d", off, keep), func(b []byte) []byte { clear(b[off+keep : end]); return b })
			}
		}
	}
	for _, n := range []int{0, 1, len(header) - 1, len(header), len(header) + 1, len(golden) / 5, len(golden) / 2, len(golden) - 1} {
		mutate(fmt.Sprintf("truncate %d", n), func(b []byte) []byte { return b[:n] })
	}
	for i := 0; i < 40; i++ {
		n := rng.Intn(len(golden))
		mutate(fmt.Sprintf("truncate %d", n), func(b []byte) []byte { return b[:n] })
	}
	lastRow := golden[bytes.LastIndexByte(golden[:len(golden)-1], '\n')+1:]
	for _, ext := range []string{"\n", "x", string(lastRow), string(lastRow[:20]), string(make([]byte, flushBytes)), string(golden)} {
		mutate(fmt.Sprintf("extend %q", ext[:min(len(ext), 12)]), func(b []byte) []byte { return append(b, ext...) })
	}
	for i := 0; i < 60; i++ {
		off, n := rng.Intn(len(golden)), 1+rng.Intn(512)
		mutate(fmt.Sprintf("random run %d+%d", off, n), func(b []byte) []byte {
			for j := off; j < min(off+n, len(b)); j++ {
				b[j] = byte(rng.Intn(256))
			}
			return b
		})
	}
	for i := 0; i < 60; i++ {
		off := rng.Intn(len(golden) + 1)
		mutate(fmt.Sprintf("insert newline %d", off), func(b []byte) []byte {
			return append(b[:off], append([]byte{'\n'}, golden[off:]...)...)
		})
	}
	for i, nl := 0, 0; i < len(golden); i++ {
		if golden[i] != '\n' {
			continue
		}
		if nl++; nl%23 == 1 || i == len(golden)-1 {
			mutate(fmt.Sprintf("delete newline %d", i), func(b []byte) []byte { return append(b[:i], golden[i+1:]...) })
		}
	}
}

// FuzzAnalyzeDMC checks AnalyzeDMC against the whole-file reference on
// arbitrary bytes, seeded with the golden DMC file.
func FuzzAnalyzeDMC(f *testing.F) {
	app, err := sharedApp()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(bytes.Clone(app.dmcContent))
	f.Add(bytes.Clone(app.dmcContent[:len(app.dmcContent)/2]))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, raw []byte) {
		checkAnalyzeDMC(t, app, "fuzz", raw)
	})
}

// TestAnalyzeDMCAllocatesPerWindow bounds what AnalyzeDMC allocates for a
// one-digit fault: the changed line's parse, never a copy of the file or
// a result per line of it.
func TestAnalyzeDMCAllocatesPerWindow(t *testing.T) {
	app := newTestApp(t)
	raw := bytes.Clone(app.dmcContent)
	off := len(raw) / 2
	for raw[off] < '1' || raw[off] > '8' {
		off++
	}
	raw[off] ^= 1
	var err error
	allocs := testing.AllocsPerRun(20, func() { _, err = app.AnalyzeDMC(raw) })
	if err != nil {
		t.Fatal(err)
	}
	if allocs > 8 {
		t.Fatalf("AnalyzeDMC allocated %.0f times for one changed line, want at most 8", allocs)
	}
}
