package montage

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

// sscanfTable is the fmt.Sscanf table parser parseTable replaced: the
// reference it must match row for row.
func sscanfTable(table []byte) ([]pairFit, error) {
	var pairs []pairFit
	for _, line := range strings.Split(string(table), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		var pf pairFit
		if _, err := fmt.Sscanf(line, "%d %d %f %f %f %d",
			&pf.i, &pf.j, &pf.p[0], &pf.p[1], &pf.p[2], &pf.n); err != nil {
			continue
		}
		pairs = append(pairs, pf)
	}
	if len(pairs) == 0 {
		return nil, fmt.Errorf("montage: fits table has no usable rows")
	}
	return pairs, nil
}

// FuzzBackgroundTable checks that parseTable keeps the rows fmt.Sscanf
// keeps, with the same integers and the same float bits, and fails with
// the same error when none parses, on arbitrary tables: signs, exponents,
// hexadecimal and binary-exponent floats, Inf and NaN, underscores,
// trailing junk, invalid UTF-8, Unicode spaces and CR characters.
func FuzzBackgroundTable(f *testing.F) {
	app, err := NewApp(DefaultConfig(), StageDiff)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(app.goldenTable)
	for _, row := range []string{
		"0 1 0.5 0.01 0.01 900", "+0 -1 +1.5 -2.5e3 1E-2 -0", "0 1 NaN +Inf -inf 900", "0 1 nan inf INF 9",
		"0 1 na 1 1 9", "0 1 +nan 1 1 9", "0 1 infinity 1 1 9", "0 1 1e400 1 1 9", "0 1 1e 1 1 9",
		"0 1 0x1p-2 0X1.8P+1 0x_1p0 9", "0 1 1p3 1.5p-2 2p 9", "0 1 1P3 1 1 9", "0 1 1_000 1 1 9",
		"0 1 0x1_0p0 1 1 9", "0 1 1.5e1_0 1 1 9", "0 1 1 1 1 9junk", "0 1 1 1 1 9.5", "0 1 1 1 1.5.3 9",
		"0 1 1 1 1", "0-1 1 1 1 9", "--1 1 1 1 1 9", "99999999999999999999 1 1 1 1 9",
		"0\t1\v1\f1\r1 9", "0\u00a01\u20001\u30001\u00851 9", "0\xe2\x80 1 1 1 1 9", "0 1 1 1 1 9\xff",
		"\xc2\xa00 1 1 1 1 9\r", "0\r\n1 1 1 1 9", "# 0 1 1 1 1 9", "1 0 .5 5. . 9",
	} {
		f.Add([]byte(row + "\n"))
		f.Add(append([]byte(row+"\n"), app.goldenTable...))
	}
	f.Fuzz(func(t *testing.T, table []byte) {
		got, err := parseTable(table)
		want, wantErr := sscanfTable(table)
		if fmt.Sprint(err) != fmt.Sprint(wantErr) || len(got) != len(want) {
			t.Fatalf("%q: %d rows, error %v; Sscanf: %d rows, error %v", table, len(got), err, len(want), wantErr)
		}
		for k := range want {
			g, w := got[k], want[k]
			same := g.i == w.i && g.j == w.j && g.n == w.n
			for c := range w.p {
				same = same && math.Float64bits(g.p[c]) == math.Float64bits(w.p[c])
			}
			if !same {
				t.Fatalf("%q row %d: %+v; Sscanf: %+v", table, k, g, w)
			}
		}
	})
}
