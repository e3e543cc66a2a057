package qmcpack

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"ffis/internal/vfs"
)

// Output paths, mirroring QMCPACK's series naming: series 000 is the VMC
// stage, series 001 the DMC stage. Classification examines only the DMC
// file, as in the paper.
const (
	VMCPath = "/He.s000.scalar.dat"
	DMCPath = "/He.s001.scalar.dat"
)

// header is the scalar.dat column header line.
const header = "#      index        LocalEnergy           Variance         Weight\n"

// FormatRows renders rows in the fixed-width scalar.dat layout.
func FormatRows(rows []Row) string {
	var b strings.Builder
	b.WriteString(header)
	for _, r := range rows {
		fmt.Fprintf(&b, "%12d  %18.10f  %18.10f  %14.6f\n", r.Index, r.Energy, r.Variance, r.Weight)
	}
	return b.String()
}

// flushBytes is the write granularity of the scalar writer: rows accumulate
// in a buffer that is flushed in ~4 KiB device-block-sized writes, giving
// fault injection realistic write targets.
const flushBytes = 4096

// WriteScalarFile streams content to path in flushBytes-sized writes.
func WriteScalarFile(fs vfs.FS, path, content string) (err error) {
	f, err := fs.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	data := []byte(content)
	for off := 0; off < len(data); off += flushBytes {
		end := off + flushBytes
		if end > len(data) {
			end = len(data)
		}
		if _, err := f.Write(data[off:end]); err != nil {
			return err
		}
	}
	return f.Sync()
}

// Analysis is the QMCA-style summary of a scalar.dat file.
type Analysis struct {
	Rows      int     // parsed data rows
	Skipped   int     // unparseable rows (corrupted text)
	Energy    float64 // weighted mean of LocalEnergy after equilibration
	ErrorBar  float64 // naive standard error of the mean
	TotalRows int     // lines that looked like data (parsed + skipped)
}

// EquilibrationFraction is the leading fraction of rows QMCA discards.
const EquilibrationFraction = 0.2

// Analyze parses a scalar.dat content and computes the equilibrated
// weighted mean energy, tolerating isolated corrupted rows (they are
// skipped and counted) the way a numpy-based analysis chain skips
// malformed lines. It fails only when the file yields no usable data —
// the condition the paper classifies as crash.
func Analyze(content string) (Analysis, error) {
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
