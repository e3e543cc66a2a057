package hdf5

import (
	"fmt"
	"sort"
	"strings"
)

// FieldClass groups format fields by the outcome class the paper associates
// with corrupting them (Table III's three buckets, plus finer distinctions
// used in the analysis).
type FieldClass int

// Field classes, ordered roughly by severity of corrupting them.
const (
	// ClassSlack: reserved bytes, alignment padding, unused B-tree/SNOD
	// capacity, and space reserved for future metadata. Faults here are
	// benign — the dominant case in Table III.
	ClassSlack FieldClass = iota
	// ClassResilient: value fields whose corruption the format or the
	// post-analysis masks (Bit Offset, Bit Precision, oversized Size...).
	ClassResilient
	// ClassValue: general value-carrying fields (addresses, sizes, dims,
	// heap name bytes) whose corruption usually surfaces as crash or
	// detected, occasionally SDC.
	ClassValue
	// ClassSDCProne: the six fields Table IV identifies as able to cause
	// silent data corruption.
	ClassSDCProne
	// ClassSignature: magic signatures; any corruption is rejected.
	ClassSignature
	// ClassVersion: format version numbers; corruption is rejected.
	ClassVersion
)

func (c FieldClass) String() string {
	switch c {
	case ClassSlack:
		return "slack"
	case ClassResilient:
		return "resilient"
	case ClassValue:
		return "value"
	case ClassSDCProne:
		return "sdc-prone"
	case ClassSignature:
		return "signature"
	case ClassVersion:
		return "version"
	default:
		return fmt.Sprintf("class(%d)", int(c))
	}
}

// FieldRange attributes a contiguous byte range of the metadata block to a
// named format field.
type FieldRange struct {
	Offset int
	Length int
	Name   string
	Class  FieldClass
}

func (r FieldRange) String() string {
	return fmt.Sprintf("[%4d,%4d) %-9s %s", r.Offset, r.Offset+r.Length, r.Class, r.Name)
}

// FieldMap is the byte-offset → field attribution for a metadata block.
// Writers append ranges in layout order.
type FieldMap struct {
	ranges []FieldRange
}

// Add appends a field range. Ranges must be appended in increasing offset
// order with no gaps — Validate enforces this.
func (m *FieldMap) Add(offset, length int, name string, class FieldClass) {
	if length == 0 {
		return
	}
	m.ranges = append(m.ranges, FieldRange{Offset: offset, Length: length, Name: name, Class: class})
}

// Ranges returns the attribution list in offset order.
func (m *FieldMap) Ranges() []FieldRange {
	out := append([]FieldRange(nil), m.ranges...)
	sort.Slice(out, func(i, j int) bool { return out[i].Offset < out[j].Offset })
	return out
}

// At returns the field containing byte offset off. The boolean is false for
// offsets outside the mapped region.
func (m *FieldMap) At(off int) (FieldRange, bool) {
	rs := m.Ranges()
	i := sort.Search(len(rs), func(i int) bool { return rs[i].Offset+rs[i].Length > off })
	if i == len(rs) || off < rs[i].Offset {
		return FieldRange{}, false
	}
	return rs[i], true
}

// Validate checks that the map covers [0, total) exactly once: no gaps, no
// overlaps. The Table III campaign depends on every metadata byte having an
// attribution.
func (m *FieldMap) Validate(total int) error {
	rs := m.Ranges()
	cursor := 0
	for _, r := range rs {
		if r.Offset != cursor {
			if r.Offset > cursor {
				return fmt.Errorf("hdf5: field map gap at [%d,%d)", cursor, r.Offset)
			}
			return fmt.Errorf("hdf5: field map overlap at %d (%s)", r.Offset, r.Name)
		}
		cursor += r.Length
	}
	if cursor != total {
		return fmt.Errorf("hdf5: field map covers %d of %d bytes", cursor, total)
	}
	return nil
}

// ByClass sums the byte counts per field class; the Table III analysis uses
// it to report e.g. what fraction of metadata is B-tree slack.
func (m *FieldMap) ByClass() map[FieldClass]int {
	out := map[FieldClass]int{}
	for _, r := range m.ranges {
		out[r.Class] += r.Length
	}
	return out
}

// Find returns every range whose name contains substr (case-insensitive),
// used by directed per-field injection (Table IV).
func (m *FieldMap) Find(substr string) []FieldRange {
	var out []FieldRange
	needle := strings.ToLower(substr)
	for _, r := range m.Ranges() {
		if strings.Contains(strings.ToLower(r.Name), needle) {
			out = append(out, r)
		}
	}
	return out
}
