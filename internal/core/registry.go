package core

import (
	"fmt"
	"strings"
	"sync"

	"ffis/internal/vfs"
)

// The model registry: fault models register themselves at package
// initialization (each built-in model's file calls Register from its var
// declaration) and every campaign driver — CLI flags, experiment grids,
// examples — resolves models through it by name or short code. The
// vocabulary is open: a new model is one new file with a type and a
// Register call, with no edits to the injector, the campaign runner, the
// engine, or any command-line switch.

var (
	regMu    sync.RWMutex
	regOrder []Model
	regIndex map[string]Model
)

// regKey canonicalizes a lookup key: model names, short codes, and aliases
// resolve case-insensitively.
func regKey(s string) string { return strings.ToLower(strings.TrimSpace(s)) }

// Register adds a model to the registry under its Name, its Short code,
// and any extra aliases, returning the model so built-ins can register from
// their var declarations. It panics on an empty or duplicate identity, and
// on a Host the injector does not intercept (only write and read are) —
// registration happens at init time, where a misregistered model should
// fail the process (and the conformance suite) loudly, not surface as a
// campaign that silently resolves the wrong model or never fires.
func Register(m Model, aliases ...string) Model {
	regMu.Lock()
	defer regMu.Unlock()
	if regIndex == nil {
		regIndex = map[string]Model{}
	}
	if m == nil {
		panic("core: Register(nil model)")
	}
	if m.Name() == "" || m.Short() == "" {
		panic(fmt.Sprintf("core: model %T needs a non-empty Name and Short", m))
	}
	if h := m.Host(); h != vfs.PrimWrite && h != vfs.PrimRead {
		panic(fmt.Sprintf("core: model %s hosts %q; the injector intercepts only write and read", m.Name(), h))
	}
	keys := append([]string{m.Name(), m.Short()}, aliases...)
	for _, k := range keys {
		key := regKey(k)
		if key == "" || key == "list" {
			panic(fmt.Sprintf("core: model %s: reserved or empty key %q", m.Name(), k))
		}
		// Identity is compared by Name, never by interface equality: a
		// model whose struct type carries uncomparable fields must still
		// get the curated duplicate-key diagnostic, and an alias that
		// restates the model's own name or short code is harmless.
		if prev, ok := regIndex[key]; ok && prev.Name() != m.Name() {
			panic(fmt.Sprintf("core: model key %q already registered by %s", k, prev.Name()))
		}
		regIndex[key] = m
	}
	regOrder = append(regOrder, m)
	return m
}

// Lookup resolves a model by name, short code, or alias, case-insensitively.
func Lookup(name string) (Model, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	m, ok := regIndex[regKey(name)]
	return m, ok
}

// ParseModel is the one fault-model name parser every command-line surface
// shares: it resolves long names ("dropped-write"), short codes ("DW"), and
// registered aliases ("dropped"), case-insensitively, and returns an error
// naming the known vocabulary otherwise.
func ParseModel(s string) (Model, error) {
	if m, ok := Lookup(s); ok {
		return m, nil
	}
	names := make([]string, 0, len(AllModels()))
	for _, m := range AllModels() {
		names = append(names, fmt.Sprintf("%s (%s)", m.Name(), m.Short()))
	}
	return nil, fmt.Errorf("core: unknown fault model %q; registered models: %s",
		s, strings.Join(names, ", "))
}

// MustModel resolves a model by name and panics if it is not registered —
// for wiring code whose names are compile-time constants.
func MustModel(name string) Model {
	m, err := ParseModel(name)
	if err != nil {
		panic(err)
	}
	return m
}

// AllModels lists every registered fault model: the write-path family
// first, then the read-path family, each in registration order. Grids that
// sweep AllModels pick up newly registered models automatically.
func AllModels() []Model {
	return append(WriteModels(), ReadModels()...)
}

// WriteModels lists the registered write-path models (hosted on write) in
// registration order.
func WriteModels() []Model { return familyModels(false) }

// ReadModels lists the registered read-path models (faults that surface
// when data is consumed, not produced) in registration order.
func ReadModels() []Model { return familyModels(true) }

func familyModels(read bool) []Model {
	regMu.RLock()
	defer regMu.RUnlock()
	var out []Model
	for _, m := range regOrder {
		if IsRead(m) == read {
			out = append(out, m)
		}
	}
	return out
}

// ModelTable renders the registry as the table the -list-models CLI flags
// print: name, short code, the primitive it faults, and the feature line.
func ModelTable() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-22s %-6s %-10s %s\n", "fault model", "short", "primitive", "feature")
	for _, m := range AllModels() {
		fmt.Fprintf(&b, "%-22s %-6s %-10s %s\n", m.Name(), m.Short(), m.Host(), m.Describe())
	}
	return b.String()
}
