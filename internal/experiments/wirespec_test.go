package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"ffis/internal/core"
	"ffis/internal/results"
	"ffis/internal/vfs"
)

func TestWireSpecNormalizedDerivesKeys(t *testing.T) {
	ws := WireSpec{Cell: "MT2", Model: "bit-flip", Runs: 10, Seed: 3}.Normalized()
	if ws.Key != "MT2/BF" {
		t.Fatalf("key: got %q, want MT2/BF", ws.Key)
	}
	if ws.WorldKey() != "MT2" {
		t.Fatalf("world key: got %q, want MT2", ws.WorldKey())
	}

	// World-shape variants must not share the plain cell's snapshot key.
	for _, v := range []WireSpec{
		{Cell: "MT2", Model: "bit-flip", Runs: 10, Seed: 3, Pipeline: true},
		{Cell: "MT2", Model: "read-bit-flip", Runs: 10, Seed: 3},
		{Cell: "MT2", Model: "bit-flip", Runs: 10, Seed: 3, Backend: "object:lag=2"},
		WireSpec{Cell: "MT2", Model: "bit-flip", Runs: 10, Seed: 3}.tiered("mem"),
	} {
		if v.WorldKey() == ws.WorldKey() {
			t.Fatalf("variant %+v shares world key %q with the standard cell", v, v.WorldKey())
		}
	}
	// Fault knobs (model, feature, shots) never change the world: they
	// share the cell's snapshot like the three Figure 7 models do.
	for _, v := range []WireSpec{
		{Cell: "MT2", Model: "shorn-write", Runs: 10, Seed: 3, Feature: core.Feature{ShornKeepNum: 3, ShornKeepDen: 8}},
		{Cell: "MT2", Model: "bit-flip", Runs: 10, Seed: 3, Shots: 2},
	} {
		if v.WorldKey() != ws.WorldKey() {
			t.Fatalf("fault variant %+v got world key %q, want the cell's %q", v, v.WorldKey(), ws.WorldKey())
		}
	}
	if mem := (WireSpec{Cell: "MT2", Model: "bit-flip", Runs: 10, Seed: 3, Backend: "mem"}); mem.WorldKey() != ws.WorldKey() {
		t.Fatalf("explicit mem backend should normalize to the default world key, got %q", mem.WorldKey())
	}
	n24 := WireSpec{Cell: "nyx", Model: "bit-flip", Runs: 10, NyxN: 24}
	n32 := WireSpec{Cell: "nyx", Model: "bit-flip", Runs: 10, NyxN: 32}
	if n24.WorldKey() == n32.WorldKey() {
		t.Fatalf("nyx edges 24 and 32 share world key %q", n24.WorldKey())
	}
}

func TestWireSpecValidateCatchesStaticErrors(t *testing.T) {
	for _, tc := range []struct {
		ws   WireSpec
		want string
	}{
		{WireSpec{Model: "bit-flip", Runs: 10}, "no cell"},
		{WireSpec{Cell: "MT9", Model: "bit-flip", Runs: 10}, "unknown cell"},
		{WireSpec{Cell: "nyx", Model: "bit-flip", Runs: 10, NyxN: -1}, "nyx_n"},
		{WireSpec{Cell: "nyx", Model: "bit-flip", Runs: 10, NyxN: 4}, "nyx_n"},
		{WireSpec{Cell: "nyx", Model: "bit-flip", Runs: 10, NyxN: 8}, "nyx_n"},
		{WireSpec{Cell: "MT2", Model: "no-such-model", Runs: 10}, "unregistered"},
		{WireSpec{Cell: "MT2", Model: "bit-flip"}, "runs"},
		{WireSpec{Cell: "MT2", Model: "bit-flip", Runs: 10, Backend: "floppy"}, "backend"},
		{WireSpec{Cell: "MT2", Model: "bit-flip", Runs: 10, Mounts: []string{"not-absolute"}}, "mount"},
		{WireSpec{Cell: "MT2", Model: "bit-flip", Runs: 1, Backend: "os:/tmp/x"}, "unknown backend"},
		{WireSpec{Cell: "MT2", Model: "bit-flip", Runs: 1, Mounts: []string{"/mosaic=os:/tmp/y"}}, "unknown backend"},
		{WireSpec{Cell: "MT2", Model: "bit-flip", Runs: 1}.tiered("os:/tmp/x"), "unknown backend"},
		{WireSpec{Cell: "MT2", Model: "bit-flip", Runs: 1, ArmMounts: []string{"/proj"}}, "arm_mounts"},
		{WireSpec{Cell: "MT2", Model: "bit-flip", Runs: 1, Backend: "object", ArmMounts: []string{"/"}}, "arm_mounts needs mounts"},
		{WireSpec{Cell: "MT2", Model: "bit-flip", Runs: 1, Mounts: []string{"/proj"}, Backend: "object", ArmMounts: []string{"/proj"}}, ""},
		{WireSpec{Cell: "MT2", Model: "bit-flip", Runs: 1, AvgDetector: true}, "avg_detector"},
		{WireSpec{Cell: "nyx", Model: "read-bit-flip", Runs: 1, AvgDetector: true}, "avg_detector"},
		{WireSpec{Cell: "nyx", Model: "bit-flip", Runs: 1, Feature: core.Feature{FlipBits: -1}}, "feature"},
		{WireSpec{Cell: "MT2", Model: "shorn-write", Runs: 1, Feature: core.Feature{ShornKeepDen: 1}}, "shorn_keep_den"},
		{WireSpec{Cell: "MT2", Model: "shorn-write", Runs: 1, Feature: core.Feature{ShornKeepNum: 1, ShornKeepDen: 2}}, ""},
	} {
		// An empty want is a spec that must pass: a root backend beside
		// mounts is one world, not two shapes.
		err := tc.ws.Validate()
		if tc.want == "" {
			if err != nil {
				t.Errorf("Validate(%+v): got %v, want nil", tc.ws, err)
			}
			continue
		}
		if err == nil || !strings.Contains(strings.ToLower(err.Error()), tc.want) {
			t.Errorf("Validate(%+v): got %v, want error containing %q", tc.ws, err, tc.want)
		}
	}
}

func TestParseWireSpecsArrayAndJSONL(t *testing.T) {
	array := `[
		{"cell": "MT1", "model": "bit-flip", "runs": 10, "seed": 3},
		{"cell": "MT2", "model": "dropped-write", "runs": 10, "seed": 3}
	]`
	jsonl := `{"cell": "MT1", "model": "bit-flip", "runs": 10, "seed": 3}
{"cell": "MT2", "model": "dropped-write", "runs": 10, "seed": 3}`
	for _, input := range []string{array, jsonl} {
		specs, err := ParseWireSpecs(strings.NewReader(input))
		if err != nil {
			t.Fatal(err)
		}
		if len(specs) != 2 || specs[0].Key != "MT1/BF" || specs[1].Key != "MT2/DW" {
			t.Fatalf("parsed %+v", specs)
		}
	}
	if _, err := ParseWireSpecs(strings.NewReader(array + "\n" + array)); err == nil {
		t.Fatal("concatenated arrays with duplicate keys should be refused")
	}
	if _, err := ParseWireSpecs(strings.NewReader("")); err == nil {
		t.Fatal("empty input should be refused")
	}
}

// TestParseWireSpecsRefusesUnknownFields: a spec field the WireSpec does
// not have fails the whole file, in the array form and in the JSONL form,
// instead of being dropped. A misspelled "mount"/"arm_mount" would
// otherwise run a flat world armed everywhere, and a retired "tiered" or
// "world_key" a different world than the file describes.
func TestParseWireSpecsRefusesUnknownFields(t *testing.T) {
	for _, spec := range []string{
		`{"cell":"MT2","model":"bit-flip","runs":10,"seed":1,"mount":["/proj=object"],"arm_mount":["/proj"]}`,
		`{"cell":"MT2","model":"bit-flip","runs":10,"seed":1,"tiered":true,"backend":"latency"}`,
		`{"cell":"MT1","model":"bit-flip","runs":10,"seed":3,"world_key":"old"}`,
		`{"cell":"nyx","model":"bit-flip","runs":10,"seed":3,"feature":{"flip_width":4}}`,
	} {
		for _, input := range []string{spec, "[" + spec + "]", `{"cell":"MT3","model":"bit-flip","runs":1}` + "\n" + spec} {
			specs, err := ParseWireSpecs(strings.NewReader(input))
			if err == nil || !strings.Contains(err.Error(), "unknown field") {
				t.Errorf("ParseWireSpecs(%s) = %+v, %v; want an unknown-field error", input, specs, err)
			}
		}
	}
	valid := `{"cell":"MT1","model":"bit-flip","runs":10,"seed":3}`
	for _, input := range []string{"[" + valid + "]]", "[" + valid + "] {}"} {
		if specs, err := ParseWireSpecs(strings.NewReader(input)); err == nil {
			t.Errorf("ParseWireSpecs(%s) = %+v; want trailing data refused", input, specs)
		}
	}
}

func TestWireSpecJSONRoundTrip(t *testing.T) {
	ws := WireSpec{
		Cell: "nyx", Model: "misdirected-write", Runs: 100, Seed: 11,
		Shots: 3, NyxN: 24,
		ArmMounts: []string{"/plt00000"}, Pipeline: true,
		Feature:     core.Feature{FlipBits: 4, ShornKeepNum: 3, ShornKeepDen: 8},
		AvgDetector: true,
	}.tiered("latency:bb").Normalized()
	raw, err := json.Marshal(ws)
	if err != nil {
		t.Fatal(err)
	}
	var back WireSpec
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, ws) {
		t.Fatalf("round trip drifted:\n sent %+v\n got  %+v", ws, back)
	}
	for _, field := range []string{`"flip_bits":4`, `"shorn_keep_num":3`, `"shorn_keep_den":8`, `"avg_detector":true`,
		`"backend":"latency:bb"`, `"mounts":["/plt00000=latency:bb","/out=latency:bb"]`} {
		if !strings.Contains(string(raw), field) {
			t.Errorf("marshaled spec lacks %s: %s", field, raw)
		}
	}

	// Zero-valued new fields are omitted, so spec files and campaignd -gen
	// output written before they existed are unchanged.
	raw, err = json.Marshal(Fig7WireGrid(10, 1)[0])
	if err != nil {
		t.Fatal(err)
	}
	if want := `{"key":"nyx/BF","cell":"nyx","model":"bit-flip","runs":10,"seed":1}`; string(raw) != want {
		t.Fatalf("bare spec marshals as %s, want %s", raw, want)
	}
}

func TestFig7WireGridCoversEveryCellAndModel(t *testing.T) {
	specs := Fig7WireGrid(50, 4)
	want := len(Fig7Cells) * len(Fig7Models())
	if len(specs) != want {
		t.Fatalf("grid has %d specs, want %d", len(specs), want)
	}
	seen := map[string]bool{}
	for _, ws := range specs {
		if err := ws.Validate(); err != nil {
			t.Errorf("generated spec %q invalid: %v", ws.Key, err)
		}
		if ws.Runs != 50 || ws.Seed != 4 {
			t.Errorf("spec %q: runs=%d seed=%d", ws.Key, ws.Runs, ws.Seed)
		}
		seen[ws.Key] = true
	}
	if len(seen) != want {
		t.Fatalf("duplicate keys in generated grid")
	}
}

// Meta must describe exactly the header a worker writes after building the
// spec, or the coordinator would refuse honest workers (or accept drifted
// ones). Pin it for every spec shape the coordinator can serve.
func TestWireSpecMetaMatchesBuiltSpec(t *testing.T) {
	cases := Fig7WireGrid(10, 5)
	for _, cell := range []string{"nyx", "qmcpack", "MT2"} {
		cases = append(cases, WireSpec{Cell: cell, Model: "dropped-write", Runs: 10, Seed: 5, NyxN: 24, Pipeline: true})
	}
	for _, cell := range []string{"nyx", "qmcpack"} {
		for _, m := range core.ReadModels() {
			cases = append(cases, WireSpec{Cell: cell, Model: m.Name(), Runs: 10, Seed: 5, NyxN: 24})
		}
	}
	cases = append(cases,
		WireSpec{Cell: "qmc", Model: "bit-flip", Runs: 10, Seed: 5},
		WireSpec{Cell: "mt2", Model: "bit-flip", Runs: 10, Seed: 5},
		WireSpec{Cell: "MT2", Model: "burst-corruption", Runs: 10, Seed: 5, Shots: 2},
		WireSpec{Cell: "nyx", Model: "bit-flip", Runs: 10, Seed: 5, NyxN: 24, Feature: core.Feature{FlipBits: 4}},
		WireSpec{Cell: "nyx", Model: "dropped-write", Runs: 10, Seed: 5, NyxN: 24, AvgDetector: true},
		WireSpec{Cell: "MT2", Model: "dropped-write", Runs: 10, Seed: 5, ArmMounts: []string{"/proj"}}.tiered("object"),
	)
	// CampaignSpec is Workload then CampaignSpecOn; the expensive Workload
	// half is built once per world key so the test stays cheap under -race.
	built := map[string]core.Workload{}
	for _, ws := range cases {
		meta, err := ws.Meta()
		if err != nil {
			t.Fatalf("%+v: Meta: %v", ws, err)
		}
		w, ok := built[ws.WorldKey()]
		if !ok {
			spec, err := ws.CampaignSpec()
			if err != nil {
				t.Fatalf("%+v: CampaignSpec: %v", ws, err)
			}
			w = spec.Workload
			built[ws.WorldKey()] = w
		}
		spec := ws.CampaignSpecOn(w)
		stop, err := spec.Config.NormalizedStop()
		if err != nil {
			t.Fatal(err)
		}
		meta.ProfileCount = 17
		got := results.NewHeader(meta)
		want := results.NewHeader(core.CampaignMeta{
			Workload: spec.Workload.Name, Signature: spec.Config.Fault.Signature(),
			ProfileCount: 17, Runs: spec.Config.Runs, Seed: spec.Config.Seed, Stop: stop,
		})
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%+v:\n Meta header  %+v\n built header %+v", ws, got, want)
		}
	}
}

// TestWireWorldKeysSeparateWorlds runs wire specs through one engine the
// way a worker serving successive leases does. Specs whose worlds differ —
// a read model forcing the pipeline variant, another Nyx edge, one mount
// named "/a+/b" against the two mounts "/a" and "/b", the average-value
// classifier, a tiered layout — must not be handed the first spec's
// workload, snapshot or profile count.
func TestWireWorldKeysSeparateWorlds(t *testing.T) {
	run := func(e *core.Engine, ws WireSpec) core.GridResult {
		t.Helper()
		w, err := e.Workload(ws.WorldKey(), ws.Workload)
		if err != nil {
			t.Fatal(err)
		}
		return e.Run([]core.CampaignSpec{ws.CampaignSpecOn(w)})[0]
	}
	nyx := func(model string, n int) WireSpec {
		return WireSpec{Cell: "nyx", Model: model, Runs: 2, Seed: 3, NyxN: n}
	}

	e := &core.Engine{Jobs: 2}
	for _, ws := range []WireSpec{nyx("bit-flip", 24), nyx("read-bit-flip", 24)} {
		if r := run(e, ws); r.Err != nil {
			t.Fatalf("%s on a shared engine: %v", ws.Normalized().Key, r.Err)
		}
	}

	// Dropped writes leave Nyx SDC that the average-value method detects,
	// so a detector spec on the plain classifier shows in its tally.
	joined, split, avg, tiered := nyx("bit-flip", 24), nyx("bit-flip", 24), nyx("dropped-write", 24), nyx("bit-flip", 24).tiered("mem")
	joined.Mounts = []string{"/plt00000+/out"}
	split.Mounts, split.ArmMounts = []string{"/plt00000", "/out"}, []string{"/plt00000"}
	avg.AvgDetector = true
	tiered.ArmMounts = []string{"/plt00000"}
	for _, pair := range [][2]WireSpec{
		{nyx("bit-flip", 24), nyx("bit-flip", 32)},
		{joined, split},
		{nyx("dropped-write", 24), avg},
		{nyx("bit-flip", 24), tiered},
	} {
		if pair[0].WorldKey() == pair[1].WorldKey() {
			t.Fatalf("%+v and %+v share world key %q", pair[0], pair[1], pair[0].WorldKey())
		}
		e := &core.Engine{Jobs: 2}
		for _, ws := range pair {
			shared := run(e, ws)
			fresh := run(&core.Engine{Jobs: 2}, ws)
			if shared.Err != nil || fresh.Err != nil {
				t.Fatalf("world %q: shared err %v, fresh err %v", ws.WorldKey(), shared.Err, fresh.Err)
			}
			if shared.Result.ProfileCount != fresh.Result.ProfileCount || shared.Result.Tally != fresh.Result.Tally {
				t.Fatalf("world %q: shared engine profiled %d writes with tally %v, a fresh engine %d with %v",
					ws.WorldKey(), shared.Result.ProfileCount, shared.Result.Tally,
					fresh.Result.ProfileCount, fresh.Result.Tally)
			}
		}
	}
}

// TestWireSpecResolvedWorld pins the one world resolution every spec
// shape goes through: the world a spec builds is the world its WorldKey
// names. A tiered layout and the same mounts listed explicitly are one
// world and share a key; for every cell, world shape and backend the built
// world has the mount table and backends the flat, mounted and tiered
// constructors have always built, with plain latency tier-aware only in a
// tiered world (burst-buffer rates on scratch, parallel-file-system rates
// elsewhere).
func TestWireSpecResolvedWorld(t *testing.T) {
	// Each cell's tier layout, hard-coded: mount points and scratch tier.
	montage := [2][]string{{"/raw", "/proj", "/diff", "/corr", "/mosaic"}, {"/proj", "/diff", "/corr"}}
	layouts := map[string][2][]string{
		"nyx":     {{"/plt00000", "/out"}, {"/plt00000"}},
		"qmcpack": {{"/out"}, {"/"}},
		"MT1":     montage, "MT2": montage, "MT3": montage, "MT4": montage,
	}
	// What each backend name builds: flat or explicitly mounted, and in a
	// tiered world on the scratch tier and on the others.
	kinds := map[string][3]string{
		"mem":          {"mem", "mem", "mem"},
		"object:lag=2": {"object", "object", "object"},
		"latency":      {"pfs", "bb", "pfs"},
		"latency:bb":   {"bb", "bb", "bb"},
	}
	kind := func(fs vfs.FS) string {
		switch b := fs.(type) {
		case *vfs.MemFS:
			return "mem"
		case *vfs.ObjectFS:
			return "object"
		case *vfs.LatencyFS:
			before := b.SimElapsed()
			if err := b.Mkdir("/probe"); err != nil {
				t.Fatal(err)
			}
			if b.SimElapsed()-before == vfs.BurstBufferModel.MetaLatency {
				return "bb"
			}
			return "pfs"
		}
		return fmt.Sprintf("%T", fs)
	}
	describe := func(fs vfs.FS) string {
		m, ok := fs.(*vfs.MountFS)
		if !ok {
			return kind(fs)
		}
		var parts []string
		for _, mp := range m.Mounts() {
			parts = append(parts, mp.Path+"="+kind(mp.FS))
		}
		return strings.Join(parts, " ")
	}
	build := func(ws WireSpec) string {
		t.Helper()
		if err := ws.Validate(); err != nil {
			t.Fatal(err)
		}
		fs, err := newWorld(ws.world())()
		if err != nil {
			t.Fatalf("%s: %v", ws.WorldKey(), err)
		}
		return describe(fs)
	}

	for _, cell := range Fig7Cells {
		dirs, scratch := layouts[cell][0], layouts[cell][1]
		for backend, k := range kinds {
			flat := WireSpec{Cell: cell, Model: "bit-flip", Runs: 1, Backend: backend}
			mounted, tiered := flat, flat.tiered(backend)
			mounted.Backend, mounted.Mounts = "", nil
			for _, d := range dirs {
				mounted.Mounts = append(mounted.Mounts, d+"="+backend)
			}

			wantMounted := []string{"/=mem"}
			wantTiered := []string{"/=" + k[2]}
			if slices.Contains(scratch, "/") {
				wantTiered[0] = "/=" + k[1]
			}
			for _, d := range dirs {
				wantMounted = append(wantMounted, d+"="+k[0])
				if slices.Contains(scratch, d) {
					wantTiered = append(wantTiered, d+"="+k[1])
				} else {
					wantTiered = append(wantTiered, d+"="+k[2])
				}
			}
			slices.Sort(wantMounted)
			slices.Sort(wantTiered)
			for _, tc := range []struct {
				ws   WireSpec
				want string
			}{
				{flat, k[0]},
				{mounted, strings.Join(wantMounted, " ")},
				{tiered, strings.Join(wantTiered, " ")},
			} {
				if got := build(tc.ws); got != tc.want {
					t.Errorf("%s: built %q, want %q", tc.ws.WorldKey(), got, tc.want)
				}
			}
			if backend == "mem" && mounted.WorldKey() != tiered.WorldKey() {
				t.Errorf("%s: tiered key %q, explicit mounts key %q", cell, tiered.WorldKey(), mounted.WorldKey())
			}
		}
		keys := map[string]bool{}
		for _, ws := range []WireSpec{
			WireSpec{Cell: cell}.tiered("latency"),
			WireSpec{Cell: cell}.tiered("mem"),
			{Cell: cell, Backend: "object:lag=2"},
			{Cell: cell},
		} {
			keys[ws.WorldKey()] = true
		}
		if len(keys) != 4 {
			t.Errorf("%s: tiered latency, tiered mem, flat object:lag=2 and flat mem share keys: %v", cell, keys)
		}
	}

	// Workload builds the resolved world too.
	ws := WireSpec{Cell: "mt2", Model: "bit-flip", Runs: 1}.tiered("latency")
	w, err := ws.Workload()
	if err != nil {
		t.Fatal(err)
	}
	fs, err := w.NewFS()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := describe(fs), build(ws); got != want {
		t.Errorf("Workload built %q, world() resolves %q", got, want)
	}

	// Aliases build the canonical cells' pipeline variants: every one has
	// a Setup (the standard QMCPACK cell has none).
	for alias, name := range map[string]string{"qmc": "qmcpack", "mt2": "MT2"} {
		w, err := NewPipelineWorkload(alias, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if w.Name != name || w.Setup == nil {
			t.Errorf("NewPipelineWorkload(%q) built %q (setup %v), want the %s pipeline", alias, w.Name, w.Setup != nil, name)
		}
	}
}

// FuzzParseWireSpecs checks the wire parser on arbitrary input: it never
// panics, every spec it accepts re-validates and is already normalized,
// and the accepted grid survives marshal → parse unchanged.
func FuzzParseWireSpecs(f *testing.F) {
	grid, err := json.Marshal(Fig7WireGrid(10, 1))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(grid)
	f.Add([]byte(`{"cell":"MT1","model":"bit-flip","runs":10,"seed":3}
{"cell":"MT2","model":"dropped-write","runs":10,"seed":3,"mounts":["/proj=object:lag=2","/mosaic"],"arm_mounts":["/proj"]}`))
	f.Add([]byte(`[{"cell":"nyx","model":"bit-flip","runs":5,"nyx_n":24,"feature":{"flip_bits":4}},
{"cell":"qmcpack","model":"shorn-write","runs":5,"key":"q","feature":{"shorn_keep_num":3,"shorn_keep_den":8}}]`))
	f.Add([]byte(`{"cell":"nyx","model":"dropped-write","runs":5,"avg_detector":true}`))
	tiered, err := json.Marshal(WireSpec{Cell: "MT4", Model: "dw", Runs: 5, ArmMounts: []string{"/mosaic"}}.tiered("latency"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(tiered)
	f.Add([]byte(`{"cell":"MT2","model":"bit-flip","runs":1,"backend":"os:/tmp/x"}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		specs, err := ParseWireSpecs(bytes.NewReader(data))
		if err != nil {
			return
		}
		for _, ws := range specs {
			if err := ws.Validate(); err != nil {
				t.Fatalf("accepted spec %+v fails Validate: %v", ws, err)
			}
			if !reflect.DeepEqual(ws.Normalized(), ws) {
				t.Fatalf("accepted spec %+v is not normalized", ws)
			}
		}
		raw, err := json.Marshal(specs)
		if err != nil {
			t.Fatal(err)
		}
		back, err := ParseWireSpecs(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("re-parse of %s: %v", raw, err)
		}
		again, err := json.Marshal(back)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(raw, again) {
			t.Fatalf("round trip drifted:\n sent %s\n got  %s", raw, again)
		}
	})
}

// TestWorldKeyBuildsAliasOnce: a cell alias names its cell's world, so an
// engine serving "qmcpack" and then "qmc" (or "MT2" and then "mt2")
// builds, snapshots and profiles the application once.
func TestWorldKeyBuildsAliasOnce(t *testing.T) {
	for _, cells := range [][2]string{{"qmcpack", "qmc"}, {"MT2", "mt2"}} {
		e := &core.Engine{Jobs: 1}
		builds := 0
		for _, cell := range cells {
			ws := WireSpec{Cell: cell, Model: "bit-flip", Runs: 1, Seed: 3}
			if _, err := e.Workload(ws.WorldKey(), func() (core.Workload, error) {
				builds++
				return ws.Workload()
			}); err != nil {
				t.Fatal(err)
			}
		}
		if builds != 1 {
			t.Errorf("%s then %s: %d workload builds, want 1", cells[0], cells[1], builds)
		}
	}
}
