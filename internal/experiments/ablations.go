package experiments

import (
	"fmt"

	"github.com/clp-sim/tflex/internal/compose"
	"github.com/clp-sim/tflex/internal/kernels"
	"github.com/clp-sim/tflex/internal/runner"
	"github.com/clp-sim/tflex/internal/sim"
	"github.com/clp-sim/tflex/internal/stats"
)

// Ablations isolates the design choices the paper calls out:
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

// AblationData maps ablation name to geomean relative performance
// (default cycles / variant cycles; < 1 means the variant is slower).
type AblationData struct {
	Relative map[string]float64
}

type ablation struct {
	name string
	desc string
	mod  func(*sim.Options)
}

func ablationList() []ablation {
	return []ablation{
		{"operand-bw-1x", "halve operand network bandwidth (TRIPS-style)",
			func(o *sim.Options) { o.Params.OperandBW = 1 }},
		{"single-issue", "single-issue cores (TRIPS-style tiles)",
			func(o *sim.Options) { o.Params.IssueTotal = 1 }},
		{"central-predictor", "centralized next-block prediction and block control",
			func(o *sim.Options) { o.CentralPredictor = true }},
		{"worst-case-lsq", "LSQ banks sized for the worst case (no NACKs)",
			func(o *sim.Options) { o.Params.LSQEntries = 1024 }},
	}
}

// ablationRun returns (cached) the kernel's run under the named ablation
// at the given composition size.
func (s *Suite) ablationRun(name, kernel string, cores int) (RunResult, error) {
	return s.ablate.Get(sizedKey{name + "/" + kernel, cores}, func() (RunResult, error) {
		var ab *ablation
		for _, a := range ablationList() {
			if a.name == name {
				ab = &a
				break
			}
		}
		if ab == nil {
			return RunResult{}, fmt.Errorf("unknown ablation %q", name)
		}
		opts := sim.DefaultOptions()
		ab.mod(&opts)
		chip := sim.New(opts)
		r, err := s.runKernel(kernel, chip, compose.MustRect(0, 0, cores), cores)
		if err != nil {
			return RunResult{}, fmt.Errorf("%s under %s: %w", kernel, name, err)
		}
		return r, nil
	})
}

// Ablations runs the ablation matrix at the given composition size.
func (s *Suite) Ablations(cores int) (AblationData, string, error) {
	d := AblationData{Relative: map[string]float64{}}
	t := stats.NewTable("ablation", "geomean perf vs default", "note")

	var specs []runner.Spec
	for _, k := range kernels.All() {
		specs = append(specs, s.TFlexSpec(k.Name, cores))
		for _, ab := range ablationList() {
			specs = append(specs, s.AblateSpec(ab.name, k.Name, cores))
		}
	}
	if err := s.Prefetch(specs); err != nil {
		return d, "", err
	}

	base := map[string]uint64{}
	for _, k := range kernels.All() {
		r, err := s.TFlexRun(k.Name, cores)
		if err != nil {
			return d, "", err
		}
		base[k.Name] = r.Cycles
	}

	for _, ab := range ablationList() {
		var rels []float64
		for _, k := range kernels.All() {
			r, err := s.ablationRun(ab.name, k.Name, cores)
			if err != nil {
				return d, "", err
			}
			rels = append(rels, float64(base[k.Name])/float64(r.Cycles))
		}
		rel := stats.Geomean(rels)
		d.Relative[ab.name] = rel
		t.Row(ab.name, rel, ab.desc)
	}
	out := fmt.Sprintf("design-choice ablations at %d cores (perf relative to default TFlex; <1 = slower):\n", cores)
	out += t.String()
	return d, out, nil
}
