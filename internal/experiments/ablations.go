package experiments

import (
	"fmt"

	"github.com/clp-sim/tflex/internal/kernels"
	"github.com/clp-sim/tflex/internal/sim"
	"github.com/clp-sim/tflex/internal/stats"
)

// ablation is one design choice the paper calls out, undone; each is a
// row of machines under cfgAblate+name.
type ablation struct {
	name string
	desc string
	mod  func(*sim.Options)
}

func (a ablation) config() string { return cfgAblate + a.name }

// ablations isolates the design choices the paper calls out:
//
//   - operand-network bandwidth: the paper doubles TFlex's operand
//     bandwidth relative to TRIPS to reduce inter-ALU contention;
//   - dual issue: TFlex cores issue two instructions per cycle against
//     TRIPS's single-issue tiles;
//   - distributed vs centralized next-block prediction: composability
//     requires distributing the predictor, which also scales its capacity;
//   - LSQ sizing: the NACK overflow mechanism lets banks stay small
//     (44 entries) instead of being sized for the worst case.
//
// Each ablation runs the full suite on an 8-core composition and reports
// the geomean slowdown relative to the default TFlex configuration.
var ablations = []ablation{
	{"operand-bw-1x", "halve operand network bandwidth (TRIPS-style)",
		func(o *sim.Options) { o.Params.OperandBW = 1 }},
	{"single-issue", "single-issue cores (TRIPS-style tiles)",
		func(o *sim.Options) { o.Params.IssueTotal = 1 }},
	{"central-predictor", "centralized next-block prediction and block control",
		func(o *sim.Options) { o.CentralPredictor = true }},
	{"worst-case-lsq", "LSQ banks sized for the worst case (no NACKs)",
		func(o *sim.Options) { o.Params.LSQEntries = 1024 }},
}

// AblationData maps ablation name to geomean relative performance
// (default cycles / variant cycles; < 1 means the variant is slower).
type AblationData struct {
	Relative map[string]float64
}

// Ablations runs the ablation matrix at the given composition size.
func (s *Suite) Ablations(cores int) (AblationData, string, error) {
	d := AblationData{Relative: map[string]float64{}}
	t := stats.NewTable("ablation", "geomean perf vs default", "note")

	var specs []Spec
	for _, k := range kernels.All() {
		specs = append(specs, s.spec(cfgTFlex, k.Name, cores))
		for _, ab := range ablations {
			specs = append(specs, s.spec(ab.config(), k.Name, cores))
		}
	}
	if err := s.Prefetch(specs); err != nil {
		return d, "", err
	}

	for _, ab := range ablations {
		var rels []float64
		for _, k := range kernels.All() {
			base := s.have(s.spec(cfgTFlex, k.Name, cores))
			r := s.have(s.spec(ab.config(), k.Name, cores))
			rels = append(rels, float64(base.Cycles)/float64(r.Cycles))
		}
		rel := stats.Geomean(rels)
		d.Relative[ab.name] = rel
		t.Row(ab.name, rel, ab.desc)
	}
	out := fmt.Sprintf("design-choice ablations at %d cores (perf relative to default TFlex; <1 = slower):\n", cores)
	out += t.String()
	return d, out, nil
}
