package core

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"

	"ffis/internal/stats"
	"ffis/internal/vfs"
)

func TestModelStrings(t *testing.T) {
	for name, short := range map[string]string{
		"bit-flip":          "BF",
		"shorn-write":       "SW",
		"dropped-write":     "DW",
		"read-bit-flip":     "RB",
		"unreadable-sector": "UR",
		"latent-corruption": "LC",
		"misdirected-write": "MD",
		"short-read":        "SR",
	} {
		m, ok := Lookup(name)
		if !ok {
			t.Errorf("model %s not registered", name)
			continue
		}
		if m.Name() != name || m.Short() != short {
			t.Errorf("%s naming: %s/%s", name, m.Name(), m.Short())
		}
	}
}

func TestWriteModelsContainTableI(t *testing.T) {
	have := map[Model]bool{}
	for _, m := range WriteModels() {
		have[m] = true
	}
	for _, m := range []Model{BitFlip, ShornWrite, DroppedWrite, MisdirectedWrite} {
		if !have[m] {
			t.Errorf("WriteModels() missing %s", m.Name())
		}
	}
	if have[ReadBitFlip] || have[UnreadableSector] || have[LatentCorruption] || have[ShortRead] {
		t.Error("WriteModels() contains a read-path model")
	}
}

func TestAllModelsPartition(t *testing.T) {
	all := AllModels()
	if len(all) != len(WriteModels())+len(ReadModels()) {
		t.Fatalf("AllModels() = %v", all)
	}
	for i, m := range all {
		if got, want := IsRead(m), i >= len(WriteModels()); got != want {
			t.Errorf("%s IsRead = %v, want %v (write family must come first)", m.Name(), got, want)
		}
		if m.Describe() == "" {
			t.Errorf("%s has an empty feature", m.Name())
		}
		if IsRead(m) && m.Host() != vfs.PrimRead {
			t.Errorf("%s hosts %s, want read", m.Name(), m.Host())
		}
	}
}

func TestWriteModelsHostWriteFirst(t *testing.T) {
	for _, m := range WriteModels() {
		if m.Host() != vfs.PrimWrite {
			t.Errorf("%s hosts %s", m.Name(), m.Host())
		}
	}
}

func TestParseModel(t *testing.T) {
	for _, s := range []string{"bit-flip", "BF", "bf", "BitFlip", "Bit-Flip"} {
		m, err := ParseModel(s)
		if err != nil || m != BitFlip {
			t.Errorf("ParseModel(%q) = %v, %v", s, m, err)
		}
	}
	for spelled, want := range map[string]Model{
		"dropped":     DroppedWrite,
		"shorn":       ShornWrite,
		"unreadable":  UnreadableSector,
		"latent":      LatentCorruption,
		"misdirected": MisdirectedWrite,
		"short":       ShortRead,
		"md":          MisdirectedWrite,
		"sr":          ShortRead,
	} {
		if m, err := ParseModel(spelled); err != nil || m != want {
			t.Errorf("ParseModel(%q) = %v, %v; want %s", spelled, m, err, want.Name())
		}
	}
	if _, err := ParseModel("torn-page"); err == nil {
		t.Error("ParseModel accepted an unregistered model")
	} else if !strings.Contains(err.Error(), "bit-flip") {
		t.Errorf("ParseModel error does not list the vocabulary: %v", err)
	}
}

// FuzzParseModel checks the -model flag parser on arbitrary strings: it
// never panics, and the Name and Short of every model it accepts parse
// back to that model.
func FuzzParseModel(f *testing.F) {
	for _, s := range []string{"bit-flip", "BF", " dropped ", "Bit-Flip", "repeat-misdirect", "list", "", "torn-page"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		m, err := ParseModel(s)
		if err != nil {
			return
		}
		for _, k := range []string{m.Name(), m.Short()} {
			back, err := ParseModel(k)
			if err != nil || back.Name() != m.Name() {
				t.Fatalf("ParseModel(%q) = %s, but its key %q parses to %v, %v", s, m.Name(), k, back, err)
			}
		}
	})
}

func TestModelTableListsEveryModel(t *testing.T) {
	table := ModelTable()
	for _, m := range AllModels() {
		if !strings.Contains(table, m.Name()) || !strings.Contains(table, m.Short()) {
			t.Errorf("ModelTable() missing %s", m.Name())
		}
	}
}

func TestFeatureDefaults(t *testing.T) {
	f := Feature{}.normalize()
	if f.FlipBits != 2 {
		t.Errorf("FlipBits = %d, want paper default 2", f.FlipBits)
	}
	if f.ShornKeepNum != 7 || f.ShornKeepDen != 8 {
		t.Errorf("shorn keep = %d/%d, want 7/8", f.ShornKeepNum, f.ShornKeepDen)
	}
}

func TestFeatureKeepClamped(t *testing.T) {
	f := Feature{ShornKeepNum: 9, ShornKeepDen: 8}.normalize()
	if f.ShornKeepNum >= f.ShornKeepDen {
		t.Fatalf("keep fraction not clamped: %d/%d", f.ShornKeepNum, f.ShornKeepDen)
	}
}

func TestConfigSignatureDefaults(t *testing.T) {
	sig := Config{Model: BitFlip}.Signature()
	if sig.Feature.FlipBits != 2 {
		t.Errorf("feature not normalized")
	}
	if sig.String() != "bit-flip@write" {
		t.Errorf("signature string = %q", sig.String())
	}
}

func TestMutateBitFlipFlipsExactlyN(t *testing.T) {
	rng := stats.NewRNG(1)
	orig := make([]byte, 64)
	for i := range orig {
		orig[i] = byte(i)
	}
	for trial := 0; trial < 200; trial++ {
		mut, m := mutateBitFlip(orig, Feature{FlipBits: 2}.normalize(), rng)
		if bytes.Equal(mut, orig) {
			t.Fatal("no bits flipped")
		}
		diffBits := 0
		for i := range orig {
			diffBits += popcount(mut[i] ^ orig[i])
		}
		if diffBits != 2 {
			t.Fatalf("flipped %d bits, want 2", diffBits)
		}
		// Flipped bits must be consecutive.
		first := m.BitPos
		if mut[first/8]&(1<<uint(first%8)) == orig[first/8]&(1<<uint(first%8)) {
			t.Fatal("recorded BitPos not actually flipped")
		}
		second := first + 1
		if mut[second/8]&(1<<uint(second%8)) == orig[second/8]&(1<<uint(second%8)) {
			t.Fatal("second consecutive bit not flipped")
		}
	}
}

func popcount(b byte) int {
	n := 0
	for b != 0 {
		n += int(b & 1)
		b >>= 1
	}
	return n
}

func TestMutateBitFlipIsInvolution(t *testing.T) {
	// Applying the same flip twice restores the buffer: flipping is XOR.
	f := func(seed uint64, n uint8) bool {
		size := int(n)%128 + 1
		rng := stats.NewRNG(seed)
		orig := make([]byte, size)
		for i := range orig {
			orig[i] = byte(rng.Uint64())
		}
		mut, m := mutateBitFlip(orig, Feature{FlipBits: 2}.normalize(), rng)
		// Re-flip the same bits manually.
		for i := 0; i < 2 && m.BitPos+i < size*8; i++ {
			bit := m.BitPos + i
			mut[bit/8] ^= 1 << uint(bit%8)
		}
		return bytes.Equal(mut, orig)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestMutateBitFlipDoesNotAliasInput(t *testing.T) {
	rng := stats.NewRNG(2)
	orig := []byte{0xAA, 0xBB}
	snapshot := append([]byte(nil), orig...)
	mutateBitFlip(orig, Feature{}.normalize(), rng)
	if !bytes.Equal(orig, snapshot) {
		t.Fatal("mutateBitFlip modified the caller's buffer")
	}
}

func TestMutateBitFlipEmptyBuffer(t *testing.T) {
	rng := stats.NewRNG(3)
	mut, m := mutateBitFlip(nil, Feature{}.normalize(), rng)
	if len(mut) != 0 || m.BitPos != -1 {
		t.Fatalf("empty buffer mutation: %v %+v", mut, m)
	}
}

func TestMutateBitFlipWidthWiderThanBuffer(t *testing.T) {
	rng := stats.NewRNG(4)
	orig := []byte{0x00}
	mut, _ := mutateBitFlip(orig, Feature{FlipBits: 64}.normalize(), rng)
	if popcount(mut[0]) != 8 {
		t.Fatalf("expected all 8 bits flipped, got %08b", mut[0])
	}
}

func TestShornPlanAlignedBlock(t *testing.T) {
	f := Feature{}.normalize() // keep 7/8 of 4096 = 3584 bytes
	keep, dropped := shornPlan(0, 4096, f)
	if len(keep) != 1 || keep[0].Start != 0 || keep[0].End != 3584 {
		t.Fatalf("keep = %+v", keep)
	}
	if dropped != 1 { // 512 bytes = 1 sector
		t.Fatalf("dropped sectors = %d, want 1", dropped)
	}
}

func TestShornPlanThreeEighths(t *testing.T) {
	f := Feature{ShornKeepNum: 3, ShornKeepDen: 8}.normalize()
	keep, dropped := shornPlan(0, 4096, f)
	if len(keep) != 1 || keep[0].End != 1536 {
		t.Fatalf("keep = %+v", keep)
	}
	if dropped != 5 { // 2560 bytes lost = 5 sectors
		t.Fatalf("dropped = %d, want 5", dropped)
	}
}

func TestShornPlanMultiBlock(t *testing.T) {
	f := Feature{}.normalize()
	keep, dropped := shornPlan(0, 8192, f)
	if len(keep) != 2 {
		t.Fatalf("keep segments = %+v", keep)
	}
	if keep[1].Start != 4096 || keep[1].End != 4096+3584 {
		t.Fatalf("second block keep = %+v", keep[1])
	}
	if dropped != 2 {
		t.Fatalf("dropped = %d", dropped)
	}
}

func TestShornPlanUnalignedOffset(t *testing.T) {
	f := Feature{}.normalize()
	// Write of 1024 bytes starting at 3072: bytes 3072..3583 are inside
	// the kept fraction, 3584..4095 are lost.
	keep, dropped := shornPlan(3072, 1024, f)
	if len(keep) != 1 || keep[0].Start != 0 || keep[0].End != 512 {
		t.Fatalf("keep = %+v", keep)
	}
	if dropped != 1 {
		t.Fatalf("dropped = %d", dropped)
	}
}

func TestShornPlanEntirelyInLostRegion(t *testing.T) {
	f := Feature{}.normalize()
	keep, dropped := shornPlan(3584, 512, f)
	if len(keep) != 0 {
		t.Fatalf("keep = %+v, want none", keep)
	}
	if dropped != 1 {
		t.Fatalf("dropped = %d", dropped)
	}
}

func TestShornPlanEmptyWrite(t *testing.T) {
	keep, dropped := shornPlan(0, 0, Feature{}.normalize())
	if keep != nil || dropped != 0 {
		t.Fatalf("empty write plan: %+v %d", keep, dropped)
	}
}

// Property: plan segments are disjoint, sorted, within bounds, and the kept
// byte count never exceeds the write length.
func TestShornPlanQuick(t *testing.T) {
	f := func(offRaw uint32, lenRaw uint16, threeEighths bool) bool {
		feat := Feature{}.normalize()
		if threeEighths {
			feat = Feature{ShornKeepNum: 3, ShornKeepDen: 8}.normalize()
		}
		off := int64(offRaw % 65536)
		length := int(lenRaw)
		keep, _ := shornPlan(off, length, feat)
		var prevEnd, total int64
		for _, s := range keep {
			if s.Start < prevEnd || s.End <= s.Start || s.End > int64(length) {
				return false
			}
			total += s.End - s.Start
			prevEnd = s.End
		}
		return total <= int64(length)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
