// Package core implements FFIS itself: the fault models of Table I, fault
// signatures, the I/O profiler, the fault injector that corrupts exactly one
// dynamic instance of a file-system primitive, and the campaign runner that
// repeats injections until statistical significance.
//
// The package mirrors the three components of Figure 4 in the paper:
//
//   - Fault generator — Config.Signature() turns a user configuration into a
//     fault signature (fault model + model feature; the model's Host is the
//     target primitive).
//   - I/O profiler — a fault-free pass through a Disarmed injector reports
//     the dynamic count of the target primitive (Engine.Profile, memoized
//     per world for every campaign).
//   - Fault injector — NewInjector()/InjectorFS corrupt the randomly chosen
//     instance; the Engine schedules the runs of every campaign (a single
//     cell is a one-spec grid), classifies and tallies their outcomes.
//     Engine.Replay re-runs one chosen instance the same way.
//
// Fault models are an open vocabulary, as device studies keep surfacing new
// manifestations: each model is a self-contained Model implementation
// registered with Register, and the injector, campaign drivers, CLI flags,
// and experiment grids reach every registered model through the registry
// alone — adding a model touches no dispatch code.
//
// Beyond the paper's flat single-device setup, campaigns can route faults
// by storage tier: a Workload whose NewFS returns a *vfs.MountFS world can
// be armed on a subset of its mounts via CampaignConfig.ArmMounts, in which
// case the profiling pass counts — and the injector corrupts — only the I/O
// routed to those mounts. All other tiers stay clean, and outcome
// classification always reads through the unarmed view of the same storage.
package core

import (
	"fmt"

	"ffis/internal/stats"
	"ffis/internal/vfs"
)

// Model is one SSD partial-failure manifestation (Table I and its
// extensions): a self-contained fault-model implementation. Identity comes
// from Name/Short, the one primitive it faults from Host, and behavior from
// the Mutate* hook the injector calls when its armed shot lands on an
// instance of that primitive. Implementations embed BaseModel to inherit
// pass-through hooks and override only the one for their host; a
// Register call makes the model reachable by every campaign driver —
// ParseModel-based CLI flags, experiment grids, examples — with no further
// wiring.
//
// Hooks run after the injector has claimed its single shot, so each hook
// fires at most once per campaign run. A hook is responsible for recording
// what it did via Env.Record; a fired-but-unrecorded shot makes the run
// tally as never injected, which the registry conformance suite treats as
// a model bug. Hooks draw randomness only through Env, and the Engine
// reuses the records of runs that drew nothing, so a hook that makes no
// draw must act as a pure function of its op and the feature.
type Model interface {
	// Name is the stable long identifier ("bit-flip"): the ParseModel key,
	// the report label, and the JSON-export value.
	Name() string
	// Short is the two-letter code used in figure and table headings
	// ("BF").
	Short() string
	// Host is the one primitive the fault lands on: write or read, the
	// two the injector intercepts (Register refuses any other).
	Host() vfs.Primitive
	// Describe is the Table I "features" column: one line on what the
	// model does to the victim primitive instance.
	Describe() string

	// MutateWrite corrupts a claimed write instance (Figure 3a: the
	// (buffer, size, offset) triple of FFIS_write). It must Record the
	// mutation and return how the injector completes the write.
	MutateWrite(env Env, op WriteOp) WriteAction
	// MutateRead serves a claimed read instance. The hook owns the whole
	// read: it decides whether the underlying device read (op.Do) runs at
	// all, corrupts the delivered bytes or the at-rest media, Records the
	// mutation, and returns what the application observes.
	MutateRead(env Env, op ReadOp) (int, error)

	// RenderMutation formats one of this model's mutation records for
	// logs; Mutation.String delegates here, so new models get readable
	// mutation lines without any central rendering switch.
	RenderMutation(m Mutation) string
}

// IsRead reports whether the model hosts on the read path, so campaigns
// aim it at data consumption instead of production.
func IsRead(m Model) bool { return m.Host() == vfs.PrimRead }

// MultiShot is the optional interface of correlated fault models: models
// whose one physical fault event manifests on more than one primitive
// instance (firmware misdirecting every Nth write, a device dropping off
// the bus). The injector still draws a single uniform target instance; a
// MultiShot model then decides which instances at or after the target
// belong to the event, bounded by a shot budget.
//
// Single-manifestation models simply don't implement this: they keep the
// exact claim sequence (and tallies) of the single-shot injector.
type MultiShot interface {
	// Claims reports whether the rel-th instance at or after the drawn
	// target (rel 0 is the target itself) is one of the model's shots. It
	// must be a pure function of rel — campaign determinism depends on it.
	Claims(rel int64) bool
	// DefaultShots is the model's shot budget when Signature.Shots is
	// unset. It must be >= 1.
	DefaultShots() int
}

// The device geometry the write-path models act on: the paper's SSD
// persists "each 4KB block at 512B granularity" (Table I).
const (
	// SectorSize is the persistence granularity of the device.
	SectorSize = 512
	// BlockSize is the device program block.
	BlockSize = 4096
)

// Feature carries the per-model tunables of a fault signature. Zero values
// select the paper's defaults via normalize(). The JSON tags are its wire
// form in a campaign spec; a zero field is omitted.
type Feature struct {
	// FlipBits is the number of consecutive bits flipped by BitFlip.
	// The paper's default is 2 (footnote 3 also evaluates 4).
	FlipBits int `json:"flip_bits,omitempty"`
	// ShornKeepNum/ShornKeepDen give the fraction of each block persisted
	// by ShornWrite: 3/8 or 7/8 in Table I. Default 7/8.
	ShornKeepNum int `json:"shorn_keep_num,omitempty"`
	ShornKeepDen int `json:"shorn_keep_den,omitempty"`
}

// normalize fills in the paper defaults for any unset field.
func (f Feature) normalize() Feature {
	if f.FlipBits <= 0 {
		f.FlipBits = 2
	}
	if f.ShornKeepDen <= 0 {
		f.ShornKeepDen = 8
	}
	if f.ShornKeepNum <= 0 {
		f.ShornKeepNum = 7
	}
	if f.ShornKeepNum >= f.ShornKeepDen {
		f.ShornKeepNum = f.ShornKeepDen - 1
	}
	return f
}

// Signature is the fault signature produced by the fault generator: the
// fault model, which fixes the primitive hosting the fault (Model.Host),
// and the model feature (Figure 4, "Generating fault signature").
type Signature struct {
	Model   Model
	Feature Feature
	// Shots bounds how many primitive instances one injection run may
	// corrupt. 0 keeps the model's own default budget — 1 for every
	// single-manifestation model, the MultiShot model's DefaultShots
	// otherwise — and is deliberately left raw rather than normalized to 1
	// so legacy signatures (and the record headers derived from them)
	// serialize exactly as the single-shot era wrote them.
	Shots int
}

// ShotBudget resolves the signature's effective shot budget.
func (s Signature) ShotBudget() int {
	if s.Shots > 0 {
		return s.Shots
	}
	if ms, ok := s.Model.(MultiShot); ok {
		if n := ms.DefaultShots(); n > 0 {
			return n
		}
	}
	return 1
}

func (s Signature) String() string {
	if s.Model == nil {
		return "(no model)"
	}
	return fmt.Sprintf("%s@%s", s.Model.Name(), s.Model.Host())
}

// Validate reports whether the injector can run this signature: it needs
// a model and a non-negative shot budget. The Engine calls it before
// profiling.
func (s Signature) Validate() error {
	if s.Model == nil {
		return fmt.Errorf("core: signature has no fault model (use ParseModel or a registered Model)")
	}
	if s.Shots < 0 {
		return fmt.Errorf("core: signature shot budget %d is negative", s.Shots)
	}
	return nil
}

// Config is the user configuration the fault generator consumes.
type Config struct {
	Model   Model
	Feature Feature
	// Shots overrides the per-run shot budget; 0 keeps the model default.
	Shots int
}

// Signature generates the fault signature from the configuration, applying
// the paper's defaults for anything unspecified.
func (c Config) Signature() Signature {
	return Signature{Model: c.Model, Feature: c.Feature.normalize(), Shots: c.Shots}
}

// Mutation describes what a fault model did to one intercepted primitive
// instance, for logging and for tests that assert the corruption shape.
// The fixed fields cover the built-in vocabulary; models with extra state
// to report put it in Detail, which the generic rendering appends.
//
// The JSON tags name the fields of a stored record's "mutation" object,
// in this order; internal/results is the one package that reads and
// writes record files, and stores the model by name.
type Mutation struct {
	Model   Model  `json:"-"`
	Path    string `json:"path,omitempty"`    // file the primitive targeted
	Offset  int64  `json:"offset"`            // file offset of the write or read
	Length  int    `json:"length,omitempty"`  // length of the original buffer
	BitPos  int    `json:"bit_pos"`           // bit-flip models: first flipped bit index within the buffer (-1: nothing to flip)
	Kept    int    `json:"kept,omitempty"`    // bytes actually persisted (ShornWrite) or delivered (ShortRead)
	Dropped bool   `json:"dropped,omitempty"` // DroppedWrite: write suppressed
	Sectors int    `json:"sectors,omitempty"` // ShornWrite: sectors suppressed
	// Unreadable marks an UnreadableSector fault: the read failed with
	// vfs.ErrUnreadable and delivered no data.
	Unreadable bool `json:"unreadable,omitempty"`
	// Latent marks a LatentCorruption fault: the flip was written back to
	// the at-rest bytes, so it outlives this read.
	Latent bool `json:"latent,omitempty"`
	// Detail carries model-specific context with no dedicated field above
	// (e.g. where a misdirected write actually landed).
	Detail string `json:"detail,omitempty"`
}

// String delegates rendering to the model that produced the mutation, so
// every registered model — including ones this package has never heard of —
// yields a readable log line.
func (m Mutation) String() string {
	if m.Model == nil {
		return fmt.Sprintf("mutation(no model) %s", m.Path)
	}
	return m.Model.RenderMutation(m)
}

// mutateBitFlip flips feature.FlipBits consecutive bits of buf in place,
// starting at a random bit position. Flipping may straddle byte
// boundaries; positions are uniform over the whole buffer. The returned
// mutation has only BitPos and Length set; the calling hook stamps Model,
// Path, and Offset.
func mutateBitFlip(buf []byte, f Feature, rng *stats.RNG) Mutation {
	if len(buf) == 0 {
		return Mutation{BitPos: -1}
	}
	totalBits := len(buf) * 8
	width := f.FlipBits
	if width > totalBits {
		width = totalBits
	}
	start := rng.Intn(totalBits - width + 1)
	for i := 0; i < width; i++ {
		bit := start + i
		buf[bit/8] ^= 1 << uint(bit%8)
	}
	return Mutation{Length: len(buf), BitPos: start}
}
