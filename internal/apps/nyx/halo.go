package nyx

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"ffis/internal/stats"
	"ffis/internal/vfs"
)

// HaloConfig parameterizes the Friends-of-Friends halo finder.
type HaloConfig struct {
	// ThresholdFactor is the candidate criterion: a cell is a halo-cell
	// candidate when its density exceeds ThresholdFactor times the mean
	// density of the whole dataset. The paper quotes 81.66.
	ThresholdFactor float64
	// MinCells is the minimum number of connected candidates that form a
	// halo ("there must be enough halo cell candidates in a certain area
	// to form a halo").
	MinCells int
}

// DefaultHalo returns the paper's halo-finder parameters.
func DefaultHalo() HaloConfig {
	return HaloConfig{ThresholdFactor: 81.66, MinCells: 10}
}

// Halo is one identified dark-matter halo.
type Halo struct {
	Mass   float64    // sum of member cell densities
	Cells  int        // number of member cells
	Center [3]float64 // mass-weighted center of mass (cell coordinates)
}

// Catalog is the halo finder's output: the quantities Nyx's post-analysis
// prints (positions, cell counts, masses) plus the integral statistics the
// NVB output carries.
type Catalog struct {
	GridN      int
	Mean       float64 // average density of the input (≈1 by construction)
	Integral   float64 // total mass (mean × cell count)
	Candidates int     // cells above threshold
	Halos      []Halo
}

// FindHalos runs Friends-of-Friends on the density field: cells above the
// threshold are candidates, candidates are linked by 6-connectivity, and
// components with at least MinCells cells become halos.
func FindHalos(field []float64, n int, cfg HaloConfig) Catalog {
	return new(fof).find(field, n, cfg, stats.Mean(field))
}

// fof is the Friends-of-Friends scratch: dense arrays indexed by cell and
// by candidate, reused from one field to the next.
type fof struct {
	id     []int32 // per cell: its candidate id, or -1
	cells  []int   // per candidate, in cell order: its cell index
	parent []int   // union-find forest over candidate ids
	group  []int   // per root candidate: 1 + its index in acc, or 0
	acc    []accum // per component, in order of first candidate
}

// accum accumulates one component's statistics.
type accum struct {
	mass, cx, cy, cz float64
	cells            int
}

// find runs Friends-of-Friends on field, whose mean is given.
func (s *fof) find(field []float64, n int, cfg HaloConfig, mean float64) Catalog {
	cat := Catalog{GridN: n, Mean: mean, Integral: mean * float64(len(field))}
	threshold := cfg.ThresholdFactor * mean
	if math.IsNaN(threshold) || math.IsInf(threshold, 0) {
		// A corrupted dataset can push the mean to NaN/Inf; no finite
		// cell clears such a threshold — the "no halos found" outcome.
		return cat
	}

	// Collect candidate cells. NaN densities never satisfy the
	// comparison, so they simply drop out.
	s.id = slices.Grow(s.id[:0], len(field))[:len(field)]
	s.cells = s.cells[:0]
	for i, v := range field {
		s.id[i] = -1
		if v >= threshold {
			s.id[i] = int32(len(s.cells))
			s.cells = append(s.cells, i)
		}
	}
	cat.Candidates = len(s.cells)

	// Union-find over 6-connected candidate neighbours.
	parent := slices.Grow(s.parent[:0], len(s.cells))[:len(s.cells)]
	s.parent = parent
	for i := range parent {
		parent[i] = i
	}
	find := func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for id, idx := range s.cells {
		x, y, z := idx%n, (idx/n)%n, idx/(n*n)
		// Only look at +x/+y/+z neighbours; the -direction link is made
		// when the neighbour itself is visited.
		for _, nb := range [3]struct {
			ok bool
			at int
		}{{x+1 < n, idx + 1}, {y+1 < n, idx + n}, {z+1 < n, idx + n*n}} {
			if nb.ok && s.id[nb.at] >= 0 {
				if ra, rb := find(id), find(int(s.id[nb.at])); ra != rb {
					parent[ra] = rb
				}
			}
		}
	}

	// Accumulate component statistics in candidate order.
	s.group = slices.Grow(s.group[:0], len(s.cells))[:len(s.cells)]
	clear(s.group)
	s.acc = s.acc[:0]
	for id, idx := range s.cells {
		root := find(id)
		if s.group[root] == 0 {
			s.acc = append(s.acc, accum{})
			s.group[root] = len(s.acc)
		}
		g, v := &s.acc[s.group[root]-1], field[idx]
		g.mass += v
		g.cells++
		g.cx += v * float64(idx%n)
		g.cy += v * float64((idx/n)%n)
		g.cz += v * float64(idx/(n*n))
	}
	for _, g := range s.acc {
		if g.cells < cfg.MinCells || g.mass <= 0 {
			continue
		}
		cat.Halos = append(cat.Halos, Halo{
			Mass:   g.mass,
			Cells:  g.cells,
			Center: [3]float64{g.cx / g.mass, g.cy / g.mass, g.cz / g.mass},
		})
	}
	// Deterministic order: by descending mass, then by center.
	sort.Slice(cat.Halos, func(i, j int) bool {
		if cat.Halos[i].Mass != cat.Halos[j].Mass {
			return cat.Halos[i].Mass > cat.Halos[j].Mass
		}
		return cat.Halos[i].Center[0] < cat.Halos[j].Center[0]
	})
	return cat
}

// Render produces the textual halo-finder output (the paper's "NVB
// integral" file) that outcome classification compares bit-wise. The mean
// density integral is printed at 10⁻³ resolution: a dropped device block
// (≥0.1% mass deficit, the paper's observation) always shows, while the
// ~10⁻⁵ jitter of a shorn write's same-magnitude remnants and single
// low-order mantissa flips vanish — exactly the sensitivity the paper's
// Nyx outcome spectrum implies.
func (c Catalog) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# NVB integral %d\n", c.GridN)
	fmt.Fprintf(&b, "mean_density %.3f\n", c.Mean)
	fmt.Fprintf(&b, "candidates %d\n", c.Candidates)
	fmt.Fprintf(&b, "nhalos %d\n", len(c.Halos))
	for i, h := range c.Halos {
		fmt.Fprintf(&b, "halo %d mass=%.5g cells=%d center=(%.3f,%.3f,%.3f)\n",
			i, h.Mass, h.Cells, h.Center[0], h.Center[1], h.Center[2])
	}
	return b.String()
}

// RunHaloFinder reads the density dataset from the file system and runs the
// halo finder on it.
func RunHaloFinder(fs vfs.FS, path string, cfg HaloConfig) (Catalog, error) {
	field, n, err := ReadDataset(fs, path)
	if err != nil {
		return Catalog{}, err
	}
	return FindHalos(field, n, cfg), nil
}

// MassHistogram bins the halo masses of a catalog, reproducing the Figure 8
// comparison between golden and faulty mass distributions.
func (c Catalog) MassHistogram(lo, hi float64, bins int) *stats.Histogram {
	h := stats.NewHistogram(lo, hi, bins)
	for _, halo := range c.Halos {
		h.Add(halo.Mass)
	}
	return h
}
