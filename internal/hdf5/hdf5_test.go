package hdf5

import (
	"encoding/binary"
	"errors"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"ffis/internal/stats"
	"ffis/internal/trace"
	"ffis/internal/vfs"
)

func buildSmall(t *testing.T, values []float64, dims []uint64) *FileImage {
	t.Helper()
	img, err := NewBuilder().AddDataset(DatasetSpec{
		Name:   "baryon_density",
		Dims:   dims,
		Values: values,
	}).Build()
	if err != nil {
		t.Fatal(err)
	}
	return img
}

func seqValues(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i) + 0.25
	}
	return out
}

func TestBuildParseRoundTrip(t *testing.T) {
	values := seqValues(64)
	img := buildSmall(t, values, []uint64{4, 4, 4})
	f, err := Parse(img.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Datasets) != 1 {
		t.Fatalf("datasets = %d", len(f.Datasets))
	}
	d := f.Datasets[0]
	if d.Name != "baryon_density" {
		t.Fatalf("name = %q", d.Name)
	}
	if len(d.Dims) != 3 || d.Dims[0] != 4 {
		t.Fatalf("dims = %v", d.Dims)
	}
	got, err := f.ReadValues(d)
	if err != nil {
		t.Fatal(err)
	}
	for i := range values {
		if got[i] != values[i] {
			t.Fatalf("value[%d] = %v, want %v", i, got[i], values[i])
		}
	}
}

func TestARDEqualsMetadataSize(t *testing.T) {
	// The paper's ARD correction depends on this invariant: "the metadata
	// is saved followed by data ... the ARD is exactly equal to the size
	// of metadata".
	img := buildSmall(t, seqValues(8), []uint64{8})
	if img.Datasets[0].DataOffset != uint64(len(img.Meta)) {
		t.Fatalf("ARD = %d, metadata size = %d", img.Datasets[0].DataOffset, len(img.Meta))
	}
}

func TestFieldMapCoversMetadata(t *testing.T) {
	img := buildSmall(t, seqValues(27), []uint64{3, 3, 3})
	if err := img.Fields.Validate(len(img.Meta)); err != nil {
		t.Fatal(err)
	}
}

func TestFieldMapQuickCoverage(t *testing.T) {
	f := func(seed uint64) bool {
		r := stats.NewRNG(seed)
		n := r.Intn(20) + 1
		dims := []uint64{uint64(n)}
		img, err := NewBuilder().AddDataset(DatasetSpec{
			Name:   "d",
			Dims:   dims,
			Values: seqValues(n),
		}).Build()
		if err != nil {
			return false
		}
		return img.Fields.Validate(len(img.Meta)) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestFieldMapComposition(t *testing.T) {
	// B-tree slack must dominate the metadata block, per the paper's
	// observation that B-tree nodes account for ~72% of metadata and are
	// mostly empty.
	img := buildSmall(t, seqValues(8), []uint64{8})
	byClass := img.Fields.ByClass()
	slackFrac := float64(byClass[ClassSlack]) / float64(len(img.Meta))
	if slackFrac < 0.6 {
		t.Fatalf("slack fraction = %.2f, want >= 0.6", slackFrac)
	}
	sdcFrac := float64(byClass[ClassSDCProne]) / float64(len(img.Meta))
	if sdcFrac > 0.02 {
		t.Fatalf("SDC-prone fraction = %.3f, want tiny", sdcFrac)
	}
	if byClass[ClassSignature] < 20 {
		t.Fatalf("signature bytes = %d, want >= 20", byClass[ClassSignature])
	}
}

func TestFieldMapFindSDCFields(t *testing.T) {
	img := buildSmall(t, seqValues(8), []uint64{8})
	for _, name := range []string{
		"mantissaNormalization", "exponentLocation", "mantissaLocation",
		"mantissaSize", "exponentBias", "addressOfRawData",
	} {
		rs := img.Fields.Find(name)
		if len(rs) != 1 {
			t.Errorf("field %q: %d ranges", name, len(rs))
			continue
		}
		if rs[0].Class != ClassSDCProne {
			t.Errorf("field %q class = %s, want sdc-prone", name, rs[0].Class)
		}
	}
}

func TestMultipleDatasets(t *testing.T) {
	img, err := NewBuilder().
		AddDataset(DatasetSpec{Name: "density", Dims: []uint64{10}, Values: seqValues(10)}).
		AddDataset(DatasetSpec{Name: "velocity_x", Dims: []uint64{2, 5}, Values: seqValues(10)}).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	f, err := Parse(img.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Datasets) != 2 {
		t.Fatalf("datasets = %d", len(f.Datasets))
	}
	for _, name := range []string{"density", "velocity_x"} {
		d, err := f.Dataset(name)
		if err != nil {
			t.Fatal(err)
		}
		vals, err := f.ReadValues(d)
		if err != nil {
			t.Fatal(err)
		}
		if len(vals) != 10 {
			t.Fatalf("%s: %d values", name, len(vals))
		}
	}
	if _, err := f.Dataset("missing"); err == nil {
		t.Fatal("missing dataset found")
	}
}

func TestWriteToAndOpenViaVFS(t *testing.T) {
	fs := vfs.NewMemFS()
	fs.MkdirAll("/plt0")
	img := buildSmall(t, seqValues(64), []uint64{64})
	if err := img.WriteTo(fs, "/plt0/data.h5"); err != nil {
		t.Fatal(err)
	}
	raw, err := vfs.ReadFile(fs, "/plt0/data.h5")
	if err != nil {
		t.Fatal(err)
	}
	f, err := Parse(raw)
	if err != nil {
		t.Fatal(err)
	}
	d, err := f.Dataset("baryon_density")
	if err != nil {
		t.Fatal(err)
	}
	vals, err := f.ReadValues(d)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Dims) != 1 || d.Dims[0] != 64 || vals[63] != 63.25 {
		t.Fatalf("dims=%v vals[63]=%v", d.Dims, vals[63])
	}
}

func TestWriteToIOPattern(t *testing.T) {
	// WriteTo must produce data-chunk writes, then the metadata write
	// (penultimate), then the EOF stamp (final) — the sequence the
	// metadata injection campaign targets.
	fs := trace.NewRecorder(vfs.NewMemFS())
	img := buildSmall(t, seqValues(1024), []uint64{1024}) // 8 KiB data
	if err := img.WriteTo(fs, "/d.h5"); err != nil {
		t.Fatal(err)
	}
	wantWrites := (len(img.Data)+4095)/4096 + 2
	if got := trace.Analyze(fs.Log()).ByPrim[vfs.PrimWrite]; got != wantWrites {
		t.Fatalf("writes = %d, want %d", got, wantWrites)
	}
	var writes []trace.Op
	for _, op := range fs.Log() {
		if op.Primitive == vfs.PrimWrite {
			writes = append(writes, op)
		}
	}
	if meta := writes[wantWrites-2]; meta.Offset != 0 || meta.Size != len(img.Meta) {
		t.Fatalf("penultimate write = %v, want the %d-byte metadata block at offset 0", meta, len(img.Meta))
	}
}

func TestBuilderRejectsBadInput(t *testing.T) {
	if _, err := NewBuilder().Build(); err == nil {
		t.Error("empty builder accepted")
	}
	if _, err := NewBuilder().AddDataset(DatasetSpec{Name: "", Dims: []uint64{1}, Values: []float64{1}}).Build(); err == nil {
		t.Error("empty name accepted")
	}
	if _, err := NewBuilder().AddDataset(DatasetSpec{Name: "d", Dims: []uint64{3}, Values: []float64{1}}).Build(); err == nil {
		t.Error("mismatched value count accepted")
	}
	if _, err := NewBuilder().AddDataset(DatasetSpec{Name: "d", Dims: []uint64{0}, Values: nil}).Build(); err == nil {
		t.Error("zero dimension accepted")
	}
	if _, err := NewBuilder().AddDataset(DatasetSpec{Name: "d", Dims: nil, Values: nil}).Build(); err == nil {
		t.Error("no dims accepted")
	}
}

func corrupt(img *FileImage, off int, xor byte) []byte {
	raw := img.Bytes()
	raw[off] ^= xor
	return raw
}

func TestCorruptSignatureCrashes(t *testing.T) {
	img := buildSmall(t, seqValues(8), []uint64{8})
	for _, name := range []string{"superblock.signature", "btree.signature", "snod.signature", "heap.signature"} {
		rs := img.Fields.Find(name)
		if len(rs) != 1 {
			t.Fatalf("%s: %d ranges", name, len(rs))
		}
		_, err := Parse(corrupt(img, rs[0].Offset, 0x01))
		var fe *FormatError
		if err == nil || !errors.As(err, &fe) {
			t.Errorf("%s corruption: err = %v, want format error", name, err)
		}
	}
}

func TestCorruptVersionCrashes(t *testing.T) {
	img := buildSmall(t, seqValues(8), []uint64{8})
	for _, name := range []string{
		"superblock.versionSuperblock",
		"rootHeader.version",
		"dataset[baryon_density].objHeader.version",
		"dataset[baryon_density].datatype.classAndVersion",
		"dataset[baryon_density].layout.version",
		"snod.version",
	} {
		rs := img.Fields.Find(name)
		if len(rs) == 0 {
			t.Fatalf("field %q not found", name)
		}
		_, err := Parse(corrupt(img, rs[0].Offset, 0x04))
		if err == nil {
			t.Errorf("%s corruption accepted", name)
		}
	}
}

func TestCorruptSlackIsBenign(t *testing.T) {
	img := buildSmall(t, seqValues(27), []uint64{3, 3, 3})
	want := seqValues(27)
	checked := 0
	for _, r := range img.Fields.Ranges() {
		if r.Class != ClassSlack {
			continue
		}
		// Corrupt the middle byte of each slack range.
		raw := corrupt(img, r.Offset+r.Length/2, 0xFF)
		f, err := Parse(raw)
		if err != nil {
			t.Errorf("slack %s corruption crashed: %v", r.Name, err)
			continue
		}
		vals, err := f.ReadValues(f.Datasets[0])
		if err != nil {
			t.Errorf("slack %s corruption read failed: %v", r.Name, err)
			continue
		}
		for i := range want {
			if vals[i] != want[i] {
				t.Errorf("slack %s corruption altered data", r.Name)
				break
			}
		}
		checked++
	}
	if checked < 10 {
		t.Fatalf("only %d slack ranges exercised", checked)
	}
}

func TestCorruptExponentBiasScalesData(t *testing.T) {
	img := buildSmall(t, seqValues(16), []uint64{16})
	rs := img.Fields.Find("exponentBias")
	// Flip bit 2 of the low bias byte: 1023 -> 1019, scale by 2^4.
	raw := corrupt(img, rs[0].Offset, 0x04)
	f, err := Parse(raw)
	if err != nil {
		t.Fatal(err)
	}
	vals, err := f.ReadValues(f.Datasets[0])
	if err != nil {
		t.Fatal(err)
	}
	want := seqValues(16)
	for i := range want {
		if want[i] == 0 {
			continue
		}
		ratio := vals[i] / want[i]
		if math.Abs(ratio-16) > 1e-9 {
			t.Fatalf("value[%d] ratio = %v, want 16 (scaled by power of two)", i, ratio)
		}
	}
}

func TestCorruptARDShiftsData(t *testing.T) {
	// Two datasets so that shifting the first dataset's ARD forward still
	// lands inside the file — the Figure 5c scenario: locations shift,
	// values stay aligned because single-bit ARD corruption moves the
	// address by a power of two (here 8 bytes = one float64).
	img, err := NewBuilder().
		AddDataset(DatasetSpec{Name: "a", Dims: []uint64{16}, Values: seqValues(16)}).
		AddDataset(DatasetSpec{Name: "b", Dims: []uint64{16}, Values: seqValues(16)}).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	rs := img.Fields.Find("dataset[a].layout.addressOfRawData")
	if len(rs) != 1 {
		t.Fatalf("ARD ranges: %d", len(rs))
	}
	raw := img.Bytes()
	// Directed corruption: ARD += 8 (a flip of a clear bit 3).
	old := img.Datasets[0].DataOffset
	if raw[rs[0].Offset]&0x08 != 0 {
		t.Skip("bit 3 already set at this layout; directed patch below still applies")
	}
	raw[rs[0].Offset] ^= 0x08
	f, err := Parse(raw)
	if err != nil {
		t.Fatal(err)
	}
	d, err := f.Dataset("a")
	if err != nil {
		t.Fatal(err)
	}
	if d.DataOffset != old+8 {
		t.Fatalf("ARD = %d, want %d", d.DataOffset, old+8)
	}
	vals, err := f.ReadValues(d)
	if err != nil {
		t.Fatal(err)
	}
	want := seqValues(16)
	// Shift by +8 bytes: element i now reads original element i+1.
	for i := 0; i < 15; i++ {
		if vals[i] != want[i+1] {
			t.Fatalf("shifted value[%d] = %v, want %v", i, vals[i], want[i+1])
		}
	}
}

func TestCorruptARDFarOutCrashes(t *testing.T) {
	img := buildSmall(t, seqValues(16), []uint64{16})
	rs := img.Fields.Find("addressOfRawData")
	// Flip a high byte of the address: points far outside the file.
	raw := corrupt(img, rs[0].Offset+6, 0x10)
	f, err := Parse(raw)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.ReadValues(f.Datasets[0]); err == nil {
		t.Fatal("far-out ARD read succeeded")
	}
}

func TestCorruptLayoutSizeBiggerIsBenignSmallerCrashes(t *testing.T) {
	// Paper: "if a fault modifies the size to a bigger value, the
	// application would still produce the correct output, otherwise a
	// crash would occur."
	img := buildSmall(t, seqValues(16), []uint64{16})
	rs := img.Fields.Find("contiguousStorage.size")

	bigger := corrupt(img, rs[0].Offset+2, 0x01) // +65536 bytes
	f, err := Parse(bigger)
	if err != nil {
		t.Fatal(err)
	}
	vals, err := f.ReadValues(f.Datasets[0])
	if err != nil {
		t.Fatalf("bigger size should read fine: %v", err)
	}
	if vals[3] != seqValues(16)[3] {
		t.Fatal("bigger size altered data")
	}

	smaller := corrupt(img, rs[0].Offset, 0x80) // 128 -> 0 bytes
	f, err = Parse(smaller)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.ReadValues(f.Datasets[0]); err == nil {
		t.Fatal("smaller size should be rejected")
	}
}

func TestCorruptBitPrecisionIsBenign(t *testing.T) {
	// BIT PRECISION and BIT OFFSET are resilient fields (Section V-A):
	// the decode path does not consult them.
	img := buildSmall(t, seqValues(16), []uint64{16})
	for _, field := range []string{"bitPrecision", "bitOffset"} {
		rs := img.Fields.Find(field)
		raw := corrupt(img, rs[0].Offset, 0xFF)
		f, err := Parse(raw)
		if err != nil {
			t.Fatalf("%s corruption crashed: %v", field, err)
		}
		vals, err := f.ReadValues(f.Datasets[0])
		if err != nil {
			t.Fatalf("%s corruption read failed: %v", field, err)
		}
		if vals[5] != seqValues(16)[5] {
			t.Fatalf("%s corruption altered data", field)
		}
	}
}

func TestCorruptMantissaNormalizationBit5(t *testing.T) {
	// Bit 5 of the class bit field holds the high bit of the mantissa
	// normalization (NormImplied = 2 = bits 10). Flipping it yields
	// NormNone and silently shrinks every value — the Table IV SDC.
	img := buildSmall(t, []float64{1.5, 1.25, 1.75, 1.0}, []uint64{4})
	rs := img.Fields.Find("mantissaNormalization")
	raw := corrupt(img, rs[0].Offset, 0x20)
	f, err := Parse(raw)
	if err != nil {
		t.Fatal(err)
	}
	if f.Datasets[0].Spec.Norm != NormNone {
		t.Fatalf("norm = %d, want NormNone", f.Datasets[0].Spec.Norm)
	}
	vals, err := f.ReadValues(f.Datasets[0])
	if err != nil {
		t.Fatal(err)
	}
	// 1.5 = (1 + 0.5) * 2^0; without the implied bit it decodes to 0.5.
	if vals[0] != 0.5 {
		t.Fatalf("vals[0] = %v, want 0.5", vals[0])
	}
}

func TestCorruptEOFAddressCrashes(t *testing.T) {
	img := buildSmall(t, seqValues(8), []uint64{8})
	rs := img.Fields.Find("endOfFileAddress")
	if _, err := Parse(corrupt(img, rs[0].Offset, 0x01)); err == nil {
		t.Fatal("corrupted EOF address accepted")
	}
}

func TestCorruptHeapNameDetaches(t *testing.T) {
	img := buildSmall(t, seqValues(8), []uint64{8})
	rs := img.Fields.Find("linkName[0]")
	raw := corrupt(img, rs[0].Offset, 0x01) // "baryon_density" -> "caryon_density"
	f, err := Parse(raw)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Dataset("baryon_density"); err == nil {
		t.Fatal("dataset still found under original name")
	}
}

// TestParseHeapSizeWrapAround sets the local heap's data-segment size so
// that address plus size wraps past 2^64: Parse must reject the file with a
// FormatError instead of slicing out of range.
func TestParseHeapSizeWrapAround(t *testing.T) {
	img := buildSmall(t, seqValues(8), []uint64{8})
	raw := img.Bytes()
	addr := img.Fields.Find("heap.dataSegmentAddress")[0].Offset
	size := img.Fields.Find("heap.dataSegmentSize")[0].Offset
	dataAddr := binary.LittleEndian.Uint64(raw[addr:])
	binary.LittleEndian.PutUint64(raw[size:], -dataAddr+1)
	var fe *FormatError
	if _, err := Parse(raw); !errors.As(err, &fe) {
		t.Fatalf("Parse = %v; want a FormatError", err)
	}
}

func TestParseTruncatedFile(t *testing.T) {
	img := buildSmall(t, seqValues(8), []uint64{8})
	raw := img.Bytes()
	for _, n := range []int{0, 7, 50, 96, len(raw) - 1} {
		if _, err := Parse(raw[:n]); err == nil {
			t.Errorf("truncation to %d bytes accepted", n)
		}
	}
}

func TestInspectOutput(t *testing.T) {
	img := buildSmall(t, seqValues(8), []uint64{8})
	f, err := Parse(img.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	out := Inspect(f)
	if !strings.Contains(out, "baryon_density") || !strings.Contains(out, "bias=0x3ff") {
		t.Fatalf("inspect output:\n%s", out)
	}
	dump := DumpFields(img, nil)
	if !strings.Contains(dump, "sdc-prone") {
		t.Fatalf("dump output:\n%s", dump)
	}
}

func TestSNODCapacityLimit(t *testing.T) {
	b := NewBuilder()
	b.LeafK = 1 // capacity 2 entries
	for i := 0; i < 3; i++ {
		b.AddDataset(DatasetSpec{Name: string(rune('a' + i)), Dims: []uint64{1}, Values: []float64{1}})
	}
	if _, err := b.Build(); err == nil {
		t.Fatal("over-capacity SNOD accepted")
	}
}

func TestFieldMapAt(t *testing.T) {
	img := buildSmall(t, seqValues(8), []uint64{8})
	r, ok := img.Fields.At(0)
	if !ok || r.Name != "superblock.signature" {
		t.Fatalf("At(0) = %+v %v", r, ok)
	}
	if _, ok := img.Fields.At(len(img.Meta)); ok {
		t.Fatal("At(end) should be out of range")
	}
	if _, ok := img.Fields.At(-1); ok {
		t.Fatal("At(-1) should be out of range")
	}
}

func TestSingleSpecDataset(t *testing.T) {
	vals := []float64{0.25, 1.5, -2, 8}
	img, err := NewBuilder().AddDataset(DatasetSpec{
		Name: "f32", Dims: []uint64{4}, Values: vals, Spec: IEEE754Single(),
	}).Build()
	if err != nil {
		t.Fatal(err)
	}
	f, err := Parse(img.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	got, err := f.ReadValues(f.Datasets[0])
	if err != nil {
		t.Fatal(err)
	}
	for i := range vals {
		if got[i] != vals[i] {
			t.Errorf("f32[%d] = %v, want %v", i, got[i], vals[i])
		}
	}
	if f.Datasets[0].Spec.ExpBias != 0x7F {
		t.Fatalf("parsed bias = %#x", f.Datasets[0].Spec.ExpBias)
	}
}

// failFS hands out files whose Sync and Close fail with the given errors.
type failFS struct {
	vfs.FS
	syncErr, closeErr error
}

type failFile struct {
	vfs.File
	syncErr, closeErr error
}

func (f *failFS) Create(name string) (vfs.File, error) {
	file, err := f.FS.Create(name)
	if err != nil {
		return nil, err
	}
	return &failFile{File: file, syncErr: f.syncErr, closeErr: f.closeErr}, nil
}

func (f *failFile) Sync() error {
	if f.syncErr != nil {
		return f.syncErr
	}
	return f.File.Sync()
}

func (f *failFile) Close() error {
	f.File.Close()
	return f.closeErr
}

func TestWriteToReturnsSyncAndCloseErrors(t *testing.T) {
	syncErr, closeErr := errors.New("sync failed"), errors.New("close failed")
	cases := []struct {
		name            string
		syncErr, closed error
		want            error
	}{
		{"close", nil, closeErr, closeErr},
		{"sync before close", syncErr, closeErr, syncErr},
		{"neither", nil, nil, nil},
	}
	for _, c := range cases {
		fs := &failFS{FS: vfs.NewMemFS(), syncErr: c.syncErr, closeErr: c.closed}
		if err := buildSmall(t, seqValues(8), []uint64{8}).WriteTo(fs, "/t.h5"); err != c.want {
			t.Errorf("%s: WriteTo = %v, want %v", c.name, err, c.want)
		}
	}
}
