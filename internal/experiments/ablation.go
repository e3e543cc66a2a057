package experiments

import (
	"fmt"
	"strings"

	"ffis/internal/core"
)

// Ablations runs the design-choice sweeps DESIGN.md calls out — flip width
// (the paper's default 2 bits and footnote 3's 4, plus 1 and 8) on Nyx and
// shorn keep-fraction (Table I's 3/8 and 7/8 plus 1/8 and 5/8) on QMCPACK —
// as one engine grid and renders one table per sweep.
func Ablations(o Options) (string, error) {
	o = o.normalize()
	var specs []WireSpec
	for _, bits := range []int{1, 2, 4, 8} {
		ws := o.wire("nyx", core.BitFlip)
		ws.Key, ws.Feature = fmt.Sprintf("nyx/flip%d", bits), core.Feature{FlipBits: bits}
		specs = append(specs, ws)
	}
	flips := len(specs)
	for _, keep := range []int{1, 3, 5, 7} {
		ws := o.wire("qmcpack", core.ShornWrite)
		ws.Key, ws.Feature = fmt.Sprintf("qmcpack/keep%dof8", keep), core.Feature{ShornKeepNum: keep, ShornKeepDen: 8}
		specs = append(specs, ws)
	}

	cells, err := o.cells("ablation", specs)
	if err != nil {
		return "", err
	}

	var b strings.Builder
	b.WriteString(o.table("Ablation: bit-flip width on Nyx (footnote 3: SDC stays minimal)", cells[:flips]))
	b.WriteString("\n")
	b.WriteString(o.table("Ablation: shorn-write keep fraction on QMCPACK (Table I: 3/8 vs 7/8)", cells[flips:]))
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
