package experiments

import (
	"fmt"
	"strings"

	"ffis/internal/core"
)

// Ablations runs the design-choice sweeps DESIGN.md calls out — flip width
// (paper footnote 3) on Nyx and shorn keep-fraction (Table I's two
// variants) on QMCPACK — as one engine grid and renders one table per
// sweep.
func Ablations(o Options) (string, error) {
	o = o.normalize()
	flips := core.FlipWidthSweep()
	shorn := core.ShornFractionSweep()
	var specs []WireSpec
	for i, pt := range append(flips, shorn...) {
		cell := "nyx"
		if i >= len(flips) {
			cell = "qmcpack"
		}
		ws := o.wire(cell, pt.Fault.Model)
		ws.Key = cell + "/" + pt.Label
		f := pt.Fault.Feature
		ws.Feature = WireFeature{FlipBits: f.FlipBits, ShornKeepNum: f.ShornKeepNum, ShornKeepDen: f.ShornKeepDen}
		specs = append(specs, ws)
	}

	cells, err := o.cells("ablation", specs)
	if err != nil {
		return "", err
	}

	var b strings.Builder
	b.WriteString(o.table("Ablation: bit-flip width on Nyx (footnote 3: SDC stays minimal)", cells[:len(flips)]))
	b.WriteString("\n")
	b.WriteString(o.table("Ablation: shorn-write keep fraction on QMCPACK (Table I: 3/8 vs 7/8)", cells[len(flips):]))
	return b.String(), nil
}

// Fig7WithDetector runs the Nyx column of Figure 7 twice — without and
// with the average-value method — rendering the paper's headline claim
// that "all SDC cases with Nyx will be changed to detected cases after
// using the average-value-based method". The detector is part of the
// workload, so the two variants are two worlds: Nyx is built and profiled
// once for each.
func Fig7WithDetector(o Options) (string, error) {
	o = o.normalize()
	var specs []WireSpec
	for _, useAvg := range []bool{false, true} {
		for _, model := range Fig7Models() {
			ws := o.wire("nyx", model)
			ws.AvgDetector = useAvg
			specs = append(specs, ws.Normalized())
		}
	}
	cells, err := o.cells("detector study", specs)
	if err != nil {
		return "", err
	}
	out := o.table(
		fmt.Sprintf("Nyx outcome spectrum without vs with the average-value method (%d runs per cell)", o.Runs),
		cells)
	return out, nil
}
