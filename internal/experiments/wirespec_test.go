package experiments

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"ffis/internal/core"
	"ffis/internal/results"
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
	} {
		if v.WorldKey() == ws.WorldKey() {
			t.Fatalf("variant %+v shares world key %q with the standard cell", v, v.WorldKey())
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
	} {
		err := tc.ws.Validate()
		if err == nil || !strings.Contains(strings.ToLower(err.Error()), tc.want) {
			t.Errorf("Validate(%+v): got %v, want error containing %q", tc.ws, err, tc.want)
		}
	}
}

// The wire form and the local grid builder must agree exactly: a worker
// rebuilding a spec from its wire form has to produce the same key, world
// key, and campaign parameters the coordinator's grid declared.
func TestWireSpecCampaignSpecMatchesLocalBuilder(t *testing.T) {
	ws := WireSpec{Cell: "MT2", Model: "shorn-write", Runs: 25, Seed: 9, Shots: 2}
	spec, err := ws.CampaignSpec()
	if err != nil {
		t.Fatal(err)
	}
	o := Options{Runs: 25, Seed: 9, Shots: 2}
	w, err := NewWorkload("MT2", o)
	if err != nil {
		t.Fatal(err)
	}
	want := fig7Spec("MT2", w, spec.Config.Fault.Model, o)
	if spec.Key != want.Key || spec.WorldKey != want.WorldKey || spec.WorldKey != ws.WorldKey() {
		t.Fatalf("keys drifted: wire (%q, %q, WorldKey() %q) vs local (%q, %q)",
			spec.Key, spec.WorldKey, ws.WorldKey(), want.Key, want.WorldKey)
	}
	if spec.Config.Runs != want.Config.Runs || spec.Config.Seed != want.Config.Seed ||
		spec.Config.Fault.Shots != want.Config.Fault.Shots {
		t.Fatalf("config drifted: wire %+v vs local %+v", spec.Config, want.Config)
	}
	if spec.Workload.Name != want.Workload.Name {
		t.Fatalf("workload drifted: %q vs %q", spec.Workload.Name, want.Workload.Name)
	}
}

func TestParseWireSpecsArrayAndJSONL(t *testing.T) {
	array := `[
		{"cell": "MT1", "model": "bit-flip", "runs": 10, "seed": 3},
		{"cell": "MT2", "model": "dropped-write", "runs": 10, "seed": 3}
	]`
	// world_key is no longer a wire field (the key is derived); spec files
	// that still carry it keep parsing.
	jsonl := `{"cell": "MT1", "model": "bit-flip", "runs": 10, "seed": 3, "world_key": "old"}
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

func TestWireSpecJSONRoundTrip(t *testing.T) {
	ws := WireSpec{
		Cell: "nyx", Model: "misdirected-write", Runs: 100, Seed: 11,
		Shots: 3, NyxN: 24, Backend: "latency:bb",
		ArmMounts: []string{"/plt00000"}, Pipeline: true,
	}.Normalized()
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
// a read model forcing the pipeline variant, or another Nyx edge — must
// not be handed the first spec's workload, snapshot or profile count.
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

	e = &core.Engine{Jobs: 2}
	for _, ws := range []WireSpec{nyx("bit-flip", 24), nyx("bit-flip", 32)} {
		shared := run(e, ws)
		fresh := run(&core.Engine{Jobs: 2}, ws)
		if shared.Err != nil || fresh.Err != nil {
			t.Fatalf("nyx_n %d: shared err %v, fresh err %v", ws.NyxN, shared.Err, fresh.Err)
		}
		if shared.Result.ProfileCount != fresh.Result.ProfileCount {
			t.Fatalf("nyx_n %d: shared engine profiled %d writes, a fresh engine %d",
				ws.NyxN, shared.Result.ProfileCount, fresh.Result.ProfileCount)
		}
	}
}
