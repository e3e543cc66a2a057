package qmcpack

import (
	"bytes"
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
func WriteScalarFile(fs vfs.FS, path string, content []byte) (err error) {
	f, err := fs.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	for off := 0; off < len(content); off += flushBytes {
		end := min(off+flushBytes, len(content))
		if _, err := f.Write(content[off:end:end]); err != nil {
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

// lineKind is what QMCA makes of one line of a scalar.dat file.
type lineKind uint8

const (
	lineIgnored lineKind = iota // blank or a '#' comment
	lineSkipped                 // looked like data but did not parse
	lineRow                     // a data row: energy e, weight w
)

// line is the parse of one '\n'-separated line.
type line struct {
	e, w float64
	kind lineKind
}

// parseLine applies QMCA's row rules to one line: the local energy is the
// second column, the weight the fourth, and a row whose columns are
// missing, unparseable, NaN or of non-positive weight is skipped.
func parseLine(s string) line {
	trimmed := strings.TrimSpace(s)
	if trimmed == "" || strings.HasPrefix(trimmed, "#") {
		return line{kind: lineIgnored}
	}
	fields := strings.Fields(trimmed)
	if len(fields) < 4 {
		return line{kind: lineSkipped}
	}
	e, err1 := strconv.ParseFloat(fields[1], 64)
	w, err2 := strconv.ParseFloat(fields[3], 64)
	if err1 != nil || err2 != nil || math.IsNaN(e) || math.IsNaN(w) || w <= 0 {
		return line{kind: lineSkipped}
	}
	return line{e: e, w: w, kind: lineRow}
}

// parseLines parses every '\n'-separated line of content, the trailing
// piece after the last newline included.
func parseLines(content string) []line {
	pieces := strings.Split(content, "\n")
	out := make([]line, len(pieces))
	for i, s := range pieces {
		out[i] = parseLine(s)
	}
	return out
}

// summarize computes the equilibrated weighted mean energy over the rows
// of the concatenated segments, in file order.
func summarize(segs ...[]line) (Analysis, error) {
	var a Analysis
	rows := 0
	for _, seg := range segs {
		for _, l := range seg {
			switch l.kind {
			case lineRow:
				rows++
			case lineSkipped:
				a.Skipped++
			}
		}
	}
	a.TotalRows = rows + a.Skipped
	if rows == 0 {
		return a, fmt.Errorf("qmcpack: no parseable rows in scalar file")
	}
	skip := int(float64(rows) * EquilibrationFraction)
	var sumWE, sumW, sumWE2 float64
	seen := 0
	for _, seg := range segs {
		for _, l := range seg {
			if l.kind != lineRow {
				continue
			}
			if seen++; seen <= skip {
				continue
			}
			sumWE += l.w * l.e
			sumW += l.w
			sumWE2 += l.w * l.e * l.e
		}
	}
	a.Rows = rows - skip
	a.Energy = sumWE / sumW
	variance := sumWE2/sumW - a.Energy*a.Energy
	if variance < 0 {
		variance = 0
	}
	a.ErrorBar = math.Sqrt(variance / float64(a.Rows))
	return a, nil
}

// Analyze parses a scalar.dat content and computes the equilibrated
// weighted mean energy, tolerating isolated corrupted rows (they are
// skipped and counted) the way a numpy-based analysis chain skips
// malformed lines. It fails only when the file yields no usable data —
// the condition the paper classifies as crash.
func Analyze(content string) (Analysis, error) {
	return summarize(parseLines(content))
}

// cmpChunk is the span the common prefix and suffix scans compare at a
// time before they fall back to single bytes.
const cmpChunk = 256

// AnalyzeDMC is Analyze(string(raw)) for a DMC file that a fault may have
// changed: lines in the longest prefix and suffix raw shares with the
// golden DMC file keep their golden parse, and only the lines of raw that
// overlap the differing window are parsed. The rows and their values are
// the ones Analyze would parse, summed in the same order, so the result is
// identical bit for bit.
func (a *App) AnalyzeDMC(raw []byte) (Analysis, error) {
	g := a.dmcContent
	n := min(len(raw), len(g))
	p := 0
	for p+cmpChunk <= n && bytes.Equal(raw[p:p+cmpChunk], g[p:p+cmpChunk]) {
		p += cmpChunk
	}
	for p < n && raw[p] == g[p] {
		p++
	}
	s := 0
	for s+cmpChunk <= n-p && bytes.Equal(raw[len(raw)-s-cmpChunk:len(raw)-s], g[len(g)-s-cmpChunk:len(g)-s]) {
		s += cmpChunk
	}
	for s < n-p && raw[len(raw)-s-1] == g[len(g)-s-1] {
		s++
	}
	// The window runs from the start of the line holding the first
	// differing byte to the first newline inside the common suffix; the
	// lines after that newline are golden lines, and so are those before.
	start := bytes.LastIndexByte(raw[:p], '\n') + 1
	head := a.dmc[:bytes.Count(g[:start], []byte("\n"))]
	end, tail := len(raw), a.dmc[len(a.dmc):]
	if i := bytes.IndexByte(raw[len(raw)-s:], '\n'); i >= 0 {
		end = len(raw) - s + i
		tail = a.dmc[len(a.dmc)-bytes.Count(g[len(g)-s+i+1:], []byte("\n"))-1:]
	}
	return summarize(head, parseLines(string(raw[start:end])), tail)
}
