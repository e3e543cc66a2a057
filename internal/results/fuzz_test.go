package results

import (
	"bytes"
	"os"
	"reflect"
	"testing"
)

// FuzzParseSpecFile checks the torn-tail recovery a resume relies on, on
// arbitrary bytes: parseSpecFile never panics; an accepted file's records
// carry Index 0..n-1; appending a tail with no newline (a writer killed
// mid-line) changes neither the verdict nor the parsed prefix; and the
// valid prefix alone parses to the same file. The corpus is seeded with a
// real record file, whole, cut mid-line and with a corrupted line.
func FuzzParseSpecFile(f *testing.F) {
	raw, err := os.ReadFile("testdata/pr5_mt2_BF.jsonl.golden")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(raw, []byte(`{"index":20,"tar`))
	f.Add(raw[:len(raw)/2], []byte("x"))
	f.Add(bytes.Replace(raw, []byte(`"index":3`), []byte(`"index":4`), 1), []byte{})
	f.Add([]byte{}, []byte("{"))
	f.Fuzz(func(t *testing.T, raw, tail []byte) {
		sf, err := parseSpecFile(raw)
		tail = bytes.ReplaceAll(tail, []byte("\n"), nil)
		torn, tornErr := parseSpecFile(append(raw[:len(raw):len(raw)], tail...))
		if (err == nil) != (tornErr == nil) {
			t.Fatalf("a torn tail changed the verdict: %v, then %v", err, tornErr)
		}
		if err != nil {
			return
		}
		for k, rec := range sf.records {
			if rec.Index != k {
				t.Fatalf("record %d has index %d", k, rec.Index)
			}
		}
		if sf.validLen > int64(len(raw)) {
			t.Fatalf("validLen %d past the %d bytes", sf.validLen, len(raw))
		}
		if !reflect.DeepEqual(sf, torn) {
			t.Fatalf("a torn tail changed the parsed prefix:\n  %+v\n  %+v", sf, torn)
		}
		prefix, err := parseSpecFile(raw[:sf.validLen])
		if err != nil || !reflect.DeepEqual(sf, prefix) {
			t.Fatalf("the valid prefix parses differently (%v)", err)
		}
	})
}
