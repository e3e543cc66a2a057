package core

import (
	"bytes"
	"testing"

	"ffis/internal/classify"
	"ffis/internal/vfs"
)

// The open-vocabulary proof: a fault model defined entirely in this test
// file — no edits to the injector, campaign runner, engine, or any parser —
// registers itself and is then driven through a full statistical campaign
// by name. It also rides AllModels(), so the conformance suite in this
// package exercises it like any built-in, which is exactly the guarantee a
// third-party registration gets.

// stuckBitsModel pins one random byte of the write buffer to 0xFF, as a
// worn cell whose bits stick high would.
var stuckBits = Register(stuckBitsModel{}, "stuck")

type stuckBitsModel struct{ BaseModel }

func (stuckBitsModel) Name() string  { return "stuck-bits" }
func (stuckBitsModel) Short() string { return "SB" }

func (stuckBitsModel) Host() vfs.Primitive { return vfs.PrimWrite }

func (stuckBitsModel) Describe() string {
	return "one byte of the buffer is pinned to 0xFF (test-only registration)"
}

func (sb stuckBitsModel) MutateWrite(env Env, op WriteOp) WriteAction {
	out := append([]byte(nil), op.Buf...)
	victim := env.Intn(len(out))
	out[victim] = 0xFF
	env.Record(Mutation{
		Model: sb, Path: op.Path, Offset: op.Off, Length: len(op.Buf),
		BitPos: victim * 8,
	})
	return WriteAction{Buf: out}
}

func TestRegisteredTestModelRunsFullCampaign(t *testing.T) {
	m, err := ParseModel("stuck-bits")
	if err != nil || m != Model(stuckBits) {
		t.Fatalf("registry lookup: %v, %v", m, err)
	}
	golden := bytes.Repeat([]byte{0x20}, 4096)
	w := Workload{
		Name: "openness",
		Run: func(fs vfs.FS) error {
			return vfs.WriteFile(fs, "/out", golden)
		},
		Classify: func(fs vfs.FS, runErr error) classify.Outcome {
			if runErr != nil {
				return classify.Crash
			}
			got, err := vfs.ReadFile(fs, "/out")
			if err != nil || !bytes.Equal(got, golden) {
				return classify.SDC
			}
			return classify.Benign
		},
	}
	res, err := runCampaign(0, CampaignConfig{
		Fault: Config{Model: m},
		Runs:  12,
		Seed:  99,
	}, w)
	if err != nil {
		t.Fatal(err)
	}
	// Every run pins a 0x20 byte to 0xFF inside the only written file:
	// every outcome must be SDC, and every record must carry the model's
	// own mutation stamp.
	if res.Tally.Count(classify.SDC) != 12 {
		t.Fatalf("tally = %+v, want 12 SDC", res.Tally)
	}
	for _, rec := range res.Records {
		if !rec.Fired || rec.Mutation.Model != Model(stuckBits) {
			t.Fatalf("record %d: %+v", rec.Index, rec.Mutation)
		}
	}
}
