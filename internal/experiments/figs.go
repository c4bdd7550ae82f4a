package experiments

import (
	"fmt"
	"strings"

	"github.com/clp-sim/tflex/internal/alloc"
	"github.com/clp-sim/tflex/internal/area"
	"github.com/clp-sim/tflex/internal/compose"
	"github.com/clp-sim/tflex/internal/critpath"
	"github.com/clp-sim/tflex/internal/kernels"
	"github.com/clp-sim/tflex/internal/power"
	"github.com/clp-sim/tflex/internal/stats"
)

// Experiment is one table or figure of the evaluation: the name
// `tflexexp -exp` selects it by and the function that renders its text.
// workloads sizes Figure 10's multiprogrammed mixes; the rest ignore it.
type Experiment struct {
	Name   string
	Render func(s *Suite, workloads int) (string, error)
}

// Evaluation lists every experiment in the order `tflexexp -exp all`
// prints them.  The order is part of the output, hence a slice.
func Evaluation() []Experiment {
	return []Experiment{
		{"table1", func(*Suite, int) (string, error) { return Table1(), nil }},
		{"fig5", func(s *Suite, _ int) (string, error) { _, out, err := s.Fig5(); return out, err }},
		{"fig6", func(s *Suite, _ int) (string, error) { _, out, err := s.Fig6(); return out, err }},
		{"table2", func(s *Suite, _ int) (string, error) { return s.Table2() }},
		{"fig7", func(s *Suite, _ int) (string, error) { _, out, err := s.Fig7(); return out, err }},
		{"fig8", func(s *Suite, _ int) (string, error) { _, out, err := s.Fig8(); return out, err }},
		{"fig9", func(s *Suite, _ int) (string, error) { _, out, err := s.Fig9(); return out, err }},
		{"fig9x", func(s *Suite, _ int) (string, error) { _, out, err := s.Fig9x(); return out, err }},
		{"handshake", func(s *Suite, _ int) (string, error) { _, out, err := s.Handshake(); return out, err }},
		{"fig10", func(s *Suite, workloads int) (string, error) { _, out, err := s.Fig10(workloads); return out, err }},
		{"ablations", func(s *Suite, _ int) (string, error) { _, out, err := s.Ablations(8); return out, err }},
	}
}

// Table1 prints the single-core TFlex configuration.
func Table1() string {
	p := compose.DefaultCoreParams()
	t := stats.NewTable("parameter", "configuration")
	t.Row("I-cache", fmt.Sprintf("%dKB partitioned, %d-cycle hit", p.L1IBytes>>10, p.L1IHitCycles))
	t.Row("predictor", fmt.Sprintf("local/gshare tournament, %d-cycle, local %d+%d global %d choice %d",
		p.PredictorLat, p.LocalL1Entries, p.LocalL2Entries, p.GlobalEntries, p.ChoiceEntries))
	t.Row("target tables", fmt.Sprintf("RAS %d, CTB %d, BTB %d, Btype %d",
		p.RASEntries, p.CTBEntries, p.BTBEntries, p.BtypeEntries))
	t.Row("execution", fmt.Sprintf("OoO, %d-entry window, dual issue (%d int + %d FP)",
		p.WindowEntries, p.IssueTotal, p.IssueFP))
	t.Row("D-cache", fmt.Sprintf("%dKB, %d-way, %d-cycle hit, %d-entry LSQ bank",
		p.L1DBytes>>10, p.L1DAssoc, p.L1DHitCycles, p.LSQEntries))
	t.Row("L2", fmt.Sprintf("%dMB S-NUCA, %d-way, %d-%d cycle hits", p.L2Bytes>>20, p.L2Assoc, p.L2HitMin, p.L2HitMax))
	t.Row("memory", fmt.Sprintf("%d-cycle unloaded DRAM", p.DRAMCycles))
	return t.String()
}

// Fig5Data holds the TRIPS-vs-conventional comparison.
type Fig5Data struct {
	SuiteGeo map[string]float64 // per suite geomean of conventional cycles / TRIPS cycles
}

// Fig5 runs the baseline-validation comparison.
func (s *Suite) Fig5() (Fig5Data, string, error) {
	d := Fig5Data{SuiteGeo: map[string]float64{}}
	var specs []Spec
	for _, k := range kernels.All() {
		specs = append(specs, s.spec(cfgCore2, k.Name, 0), s.spec(cfgTRIPS, k.Name, 0))
	}
	if err := s.Prefetch(specs); err != nil {
		return d, "", err
	}
	t := stats.NewTable("benchmark", "suite", "core2-cycles", "trips-cycles", "trips/core2 perf")
	suiteVals := map[string][]float64{}
	for _, k := range kernels.All() {
		c2 := s.have(s.spec(cfgCore2, k.Name, 0))
		tr := s.have(s.spec(cfgTRIPS, k.Name, 0))
		rel := float64(c2.Cycles) / float64(tr.Cycles)
		suiteVals[k.Suite] = append(suiteVals[k.Suite], rel)
		t.Row(k.Name, k.Suite, c2.Cycles, tr.Cycles, rel)
	}
	for suite, vals := range suiteVals {
		d.SuiteGeo[suite] = stats.Geomean(vals)
	}
	out := t.String()
	out += "\nsuite geomeans (TRIPS perf relative to conventional core):\n"
	for _, suite := range []string{"hand", "eembc", "versa", "specint", "specfp"} {
		out += fmt.Sprintf("  %-8s %.3f\n", suite, d.SuiteGeo[suite])
	}
	return d, out, nil
}

// sweepTable is what Figures 6, 7 and 8 share: one metric of every
// kernel on every composition size and on TRIPS, normalized to the
// kernel's 1-core run, with the per-kernel best size and the geomeans.
type sweepTable struct {
	bestSize map[string]int // kernel -> size with the highest metric

	avgBySize map[int]float64 // geomean per fixed size
	avgBest   float64
	avgTRIPS  float64
	bestFixed int // the size with the highest geomean

	// text is the table, the caption and one geomean line per size and
	// for TRIPS.
	text string
}

// sweep runs the 26-kernel composition sweep plus the TRIPS baseline and
// tabulates metric(base, r, cores): the run r's figure of merit over the
// kernel's 1-core run base, cores being 0 for the TRIPS run.  detail adds
// Figure 6's "ilp" and "BEST" columns.
func (s *Suite) sweep(caption string, detail bool, metric func(base, r RunResult, cores int) float64) (sweepTable, error) {
	d := sweepTable{
		bestSize:  map[string]int{},
		avgBySize: map[int]float64{},
	}
	var specs []Spec
	for _, k := range kernels.All() {
		specs = append(specs, s.SweepSpecs(k.Name)...)
		specs = append(specs, s.spec(cfgTRIPS, k.Name, 0))
	}
	if err := s.Prefetch(specs); err != nil {
		return d, err
	}
	header := []string{"benchmark"}
	if detail {
		header = append(header, "ilp")
	}
	for _, n := range s.Sizes {
		header = append(header, fmt.Sprintf("%dc", n))
	}
	header = append(header, "TRIPS")
	if detail {
		header = append(header, "BEST")
	}
	t := stats.NewTable(append(header, "best-n")...)

	bySize := map[int][]float64{}
	var bests, tripsVals []float64
	for _, k := range kernels.All() {
		base := s.have(s.spec(cfgTFlex, k.Name, 1))
		row := []any{k.Name}
		if detail {
			row = append(row, ilpTag(k))
		}
		best, bestN := 0.0, 1
		for _, n := range s.Sizes {
			v := metric(base, s.have(s.spec(cfgTFlex, k.Name, n)), n)
			bySize[n] = append(bySize[n], v)
			if v > best {
				best, bestN = v, n
			}
			row = append(row, v)
		}
		tv := metric(base, s.have(s.spec(cfgTRIPS, k.Name, 0)), 0)
		d.bestSize[k.Name] = bestN
		bests = append(bests, best)
		tripsVals = append(tripsVals, tv)
		row = append(row, tv)
		if detail {
			row = append(row, best)
		}
		t.Row(append(row, bestN)...)
	}
	bestAvg := 0.0
	for _, n := range s.Sizes {
		d.avgBySize[n] = stats.Geomean(bySize[n])
		if d.avgBySize[n] > bestAvg {
			bestAvg, d.bestFixed = d.avgBySize[n], n
		}
	}
	d.avgBest = stats.Geomean(bests)
	d.avgTRIPS = stats.Geomean(tripsVals)

	d.text = t.String() + "\n" + caption + ":\n"
	for _, n := range s.Sizes {
		d.text += fmt.Sprintf("  %2d cores: %.3f\n", n, d.avgBySize[n])
	}
	d.text += fmt.Sprintf("  TRIPS:    %.3f\n", d.avgTRIPS)
	return d, nil
}

// Fig6Data holds the composition performance sweep.
type Fig6Data struct {
	BestSize map[string]int // kernel -> its fastest composition size

	AvgBySize     map[int]float64 // geomean speedup per fixed size
	AvgBest       float64
	AvgTRIPS      float64
	BestFixedSize int
}

// Fig6 runs the 26-kernel composition sweep plus the TRIPS baseline.
func (s *Suite) Fig6() (Fig6Data, string, error) {
	t, err := s.sweep("averages (geomean speedup over 1-core TFlex)", true,
		func(base, r RunResult, _ int) float64 { return float64(base.Cycles) / float64(r.Cycles) })
	d := Fig6Data{
		BestSize: t.bestSize, AvgBySize: t.avgBySize, AvgBest: t.avgBest, AvgTRIPS: t.avgTRIPS, BestFixedSize: t.bestFixed,
	}
	if err != nil {
		return d, "", err
	}
	out := t.text
	out += fmt.Sprintf("  BEST:     %.3f\n", d.AvgBest)
	out += fmt.Sprintf("  best fixed composition: %d cores\n", d.BestFixedSize)
	out += fmt.Sprintf("  TFlex-8 vs TRIPS: %+.1f%%\n", 100*(d.AvgBySize[8]/d.AvgTRIPS-1))
	out += fmt.Sprintf("  BEST vs TRIPS:    %+.1f%%\n", 100*(d.AvgBest/d.AvgTRIPS-1))
	return d, out, nil
}

func ilpTag(k kernels.Kernel) string {
	if k.HighILP {
		return "high"
	}
	return "low"
}

// Table2 prints the area breakdown and the average power breakdown for
// TRIPS and an 8-core TFlex processor.
func (s *Suite) Table2() (string, error) {
	_, out, err := s.table2()
	return out, err
}

// table2Data holds Table 2's suite-average power.
type table2Data struct {
	tflex8W, tripsW float64 // total watts
	tflex8Leak      float64 // TFlex-8 leakage watts
}

func (s *Suite) table2() (table2Data, string, error) {
	var d table2Data
	at := stats.NewTable("component", "area (mm², 130nm)")
	for _, c := range area.TFlexCore() {
		at.Row("TFlex core: "+c.Name, c.MM2)
	}
	at.Row("TFlex core total", area.TFlexCoreArea())
	at.Row("8-core TFlex processor", area.TFlexArea(8))
	for _, c := range area.TRIPSProcessor() {
		at.Row("TRIPS: "+c.Name, c.MM2)
	}
	at.Row("TRIPS processor total", area.TRIPSArea())

	// Average power over the suite.
	var specs []Spec
	for _, k := range kernels.All() {
		specs = append(specs, s.spec(cfgTFlex, k.Name, 8), s.spec(cfgTRIPS, k.Name, 0))
	}
	if err := s.Prefetch(specs); err != nil {
		return d, "", err
	}
	var tflexW, tripsW []float64
	var tflexSum, tripsSum [8]float64
	n := 0
	for _, k := range kernels.All() {
		b8 := Power(s.have(s.spec(cfgTFlex, k.Name, 8)))
		bt := Power(s.have(s.spec(cfgTRIPS, k.Name, 0)))
		tflexW = append(tflexW, b8.Total())
		tripsW = append(tripsW, bt.Total())
		for i, v := range [8]float64{b8.Fetch, b8.Execution, b8.L1D, b8.Routers, b8.L2, b8.DRAMIO, b8.Clock, b8.Leakage} {
			tflexSum[i] += v
		}
		for i, v := range [8]float64{bt.Fetch, bt.Execution, bt.L1D, bt.Routers, bt.L2, bt.DRAMIO, bt.Clock, bt.Leakage} {
			tripsSum[i] += v
		}
		n++
	}
	names := []string{"fetch", "execution", "L1 D-cache", "routers", "L2", "DRAM/IO", "clock tree", "leakage"}
	pt := stats.NewTable("category", "TFlex-8 (W)", "TRIPS (W)")
	for i, name := range names {
		pt.Row(name, tflexSum[i]/float64(n), tripsSum[i]/float64(n))
	}
	d.tflex8W, d.tripsW, d.tflex8Leak = stats.Mean(tflexW), stats.Mean(tripsW), tflexSum[7]/float64(n)
	pt.Row("total", d.tflex8W, d.tripsW)
	return d, at.String() + "\naverage power across the suite:\n" + pt.String(), nil
}

// Fig7Data holds performance/area results.
type Fig7Data struct {
	AvgBySize map[int]float64 // geomean perf/area normalized to 1-core TFlex
}

// Fig7 computes performance per area: 1/(cycles x mm²).
func (s *Suite) Fig7() (Fig7Data, string, error) {
	perArea := func(r RunResult, cores int) float64 {
		if cores == 0 {
			return area.PerfPerArea(r.Cycles, area.TRIPSArea())
		}
		return area.PerfPerArea(r.Cycles, area.TFlexArea(cores))
	}
	t, err := s.sweep("geomean perf/area (normalized to 1-core TFlex)", false,
		func(base, r RunResult, cores int) float64 { return perArea(r, cores) / perArea(base, 1) })
	return Fig7Data{AvgBySize: t.avgBySize}, t.text, err
}

// Fig8Data holds power-efficiency results.
type Fig8Data struct {
	AvgBySize map[int]float64 // geomean perf²/W normalized to 1-core TFlex
	AvgBest   float64
	AvgTRIPS  float64
	BestFixed int
}

// Fig8 computes perf²/Watt across compositions and TRIPS.
func (s *Suite) Fig8() (Fig8Data, string, error) {
	perf2PerWatt := func(r RunResult) float64 {
		return power.PerfSqPerWatt(r.Cycles, Power(r).Total())
	}
	t, err := s.sweep("geomean perf²/W (normalized to 1-core TFlex)", false,
		func(base, r RunResult, _ int) float64 { return perf2PerWatt(r) / perf2PerWatt(base) })
	d := Fig8Data{
		AvgBySize: t.avgBySize,
		AvgBest:   t.avgBest, AvgTRIPS: t.avgTRIPS, BestFixed: t.bestFixed,
	}
	if err != nil {
		return d, "", err
	}
	out := t.text
	out += fmt.Sprintf("  BEST:     %.3f\n", d.AvgBest)
	out += fmt.Sprintf("  best fixed composition: %d cores\n", d.BestFixed)
	out += fmt.Sprintf("  per-app BEST vs best fixed: %+.1f%%\n", 100*(d.AvgBest/d.AvgBySize[d.BestFixed]-1))
	if d.AvgTRIPS > 0 {
		out += fmt.Sprintf("  TFlex-8 vs TRIPS: %+.1f%%\n", 100*(d.AvgBySize[8]/d.AvgTRIPS-1))
	}
	return d, out, nil
}

// Fig9Data holds the distributed fetch/commit latency decomposition.
type Fig9Data struct {
	Fetch  map[int][5]float64 // cores -> {const, handoff, bcast, dispatch, istall}
	Commit map[int][2]float64 // cores -> {arch update, handshake}
}

// Fig9 decomposes the distributed protocol latencies per composition size.
func (s *Suite) Fig9() (Fig9Data, string, error) {
	d := Fig9Data{Fetch: map[int][5]float64{}, Commit: map[int][2]float64{}}
	var specs []Spec
	for _, n := range s.Sizes {
		for _, k := range kernels.All() {
			specs = append(specs, s.spec(cfgTFlex, k.Name, n))
		}
	}
	if err := s.Prefetch(specs); err != nil {
		return d, "", err
	}
	ft := stats.NewTable("cores", "constant", "hand-off", "fetch-dist", "dispatch", "i-stall", "total")
	ct := stats.NewTable("cores", "arch-update", "handshake", "total")
	for _, n := range s.Sizes {
		var f [5]float64
		var c [2]float64
		cnt := 0.0
		for _, k := range kernels.All() {
			r := s.have(s.spec(cfgTFlex, k.Name, n))
			a, b, bc, disp, ist := r.Stats.FetchLatency()
			ar, hs := r.Stats.CommitLatency()
			f[0] += a
			f[1] += b
			f[2] += bc
			f[3] += disp
			f[4] += ist
			c[0] += ar
			c[1] += hs
			cnt++
		}
		for i := range f {
			f[i] /= cnt
		}
		for i := range c {
			c[i] /= cnt
		}
		d.Fetch[n] = f
		d.Commit[n] = c
		ft.Row(n, f[0], f[1], f[2], f[3], f[4], f[0]+f[1]+f[2]+f[3]+f[4])
		ct.Row(n, c[0], c[1], c[0]+c[1])
	}
	out := "Figure 9a: distributed fetch latency components (cycles/block)\n" + ft.String()
	out += "\nFigure 9b: distributed commit latency components (cycles/block)\n" + ct.String()
	return d, out, nil
}

// Fig9xData holds the critical-path attribution aggregate per
// composition size: over every hand-optimized kernel, where each
// committed block's latency is attributed cycle-exactly to the eight
// categories (see internal/critpath).
type Fig9xData struct {
	Agg map[int]critpath.Summary // cores -> aggregate over all kernels
}

// Fig9x renders the critical-path attribution companion to Figure 9:
// where the cycles of a committed block's lifetime actually go, per
// composition size.  Unlike Figure 9's per-phase protocol averages,
// these columns reconcile exactly — for every committed block the eight
// categories sum to the block's full latency, so the table accounts for
// 100% of block time with no "other" bucket.  The tflex row records
// attribution, so this reads Figure 6's sweep and runs no jobs of its own.
func (s *Suite) Fig9x() (Fig9xData, string, error) {
	d := Fig9xData{Agg: map[int]critpath.Summary{}}
	var specs []Spec
	for _, n := range s.Sizes {
		for _, k := range kernels.HandOptimized() {
			specs = append(specs, s.spec(cfgTFlex, k.Name, n))
		}
	}
	if err := s.Prefetch(specs); err != nil {
		return d, "", err
	}
	cols := []string{"cores"}
	for c := critpath.Category(0); c < critpath.NumCategories; c++ {
		cols = append(cols, c.Short())
	}
	ct := stats.NewTable(append(append([]string{}, cols...), "cycles/block")...)
	pt := stats.NewTable(append(append([]string{}, cols...), "total%")...)
	for _, n := range s.Sizes {
		var agg critpath.Summary
		for _, k := range kernels.HandOptimized() {
			agg.Merge(s.have(s.spec(cfgTFlex, k.Name, n)).Crit)
		}
		// The reconciliation invariant must survive aggregation: every
		// block's categories sum to its latency, so the chip-wide sums
		// must too.  A mismatch here means an attribution bug upstream.
		if agg.Cats.Total() != agg.Cycles {
			return d, "", fmt.Errorf("fig9x: %d-core attribution does not reconcile: categories sum %d, cycles %d",
				n, agg.Cats.Total(), agg.Cycles)
		}
		d.Agg[n] = agg
		crow := []any{n}
		prow := []any{n}
		var pctSum float64
		for c := critpath.Category(0); c < critpath.NumCategories; c++ {
			crow = append(crow, agg.PerBlock(c))
			pct := 0.0
			if agg.Cycles > 0 {
				pct = 100 * float64(agg.Cats[c]) / float64(agg.Cycles)
			}
			pctSum += pct
			prow = append(prow, pct)
		}
		perBlock := 0.0
		if agg.Blocks > 0 {
			perBlock = float64(agg.Cycles) / float64(agg.Blocks)
		}
		ct.Row(append(crow, perBlock)...)
		pt.Row(append(prow, pctSum)...)
	}
	out := "Figure 9x: critical-path attribution (cycles/block, avg over committed blocks)\n" + ct.String()
	out += "\nFigure 9x: share of block latency (%)\n" + pt.String()
	return d, out, nil
}

// HandshakeData holds the §6.4 instantaneous-handshake ablation.
type HandshakeData struct {
	AvgGain float64 // speedup of zero-handshake over normal at 32 cores
}

// Handshake runs the instantaneous-handshake ablation at 32 cores.
func (s *Suite) Handshake() (HandshakeData, string, error) {
	var d HandshakeData
	var specs []Spec
	for _, k := range kernels.All() {
		specs = append(specs, s.spec(cfgTFlex, k.Name, 32), s.spec(cfgZeroHS, k.Name, 32))
	}
	if err := s.Prefetch(specs); err != nil {
		return d, "", err
	}
	t := stats.NewTable("benchmark", "normal", cfgZeroHS, "gain")
	var gains []float64
	for _, k := range kernels.All() {
		normal := s.have(s.spec(cfgTFlex, k.Name, 32))
		zero := s.have(s.spec(cfgZeroHS, k.Name, 32))
		g := float64(normal.Cycles) / float64(zero.Cycles)
		gains = append(gains, g)
		t.Row(k.Name, normal.Cycles, zero.Cycles, g)
	}
	d.AvgGain = stats.Geomean(gains)
	out := t.String()
	out += fmt.Sprintf("\naverage speedup with instantaneous handshakes at 32 cores: %.3fx "+
		"(paper: < 2%% — the block-structured ISA amortizes the protocols)\n", d.AvgGain)
	return d, out, nil
}

// Fig10Data holds the multiprogrammed weighted-speedup comparison.
type Fig10Data struct {
	TFlexWS    map[int]float64         // workload size -> average WS
	CMPWS      map[int]map[int]float64 // workload size -> cores per CMP core -> average WS
	AvgTFlex   float64
	AvgVB      float64
	BestCMPAvg float64
	BestCMPK   int
	MaxGain    float64                 // max over workload sizes of TFlex WS / CMP-BestCMPK WS
	Fractions  map[int]map[int]float64 // workload size -> granularity -> fraction
}

// Fig10 evaluates multiprogrammed throughput: TFlex's optimal asymmetric
// allocation vs fixed CMPs and the symmetric variable-best CMP, over
// random workloads drawn from the 12 hand-optimized benchmarks.
func (s *Suite) Fig10(workloadsPerSize int) (Fig10Data, string, error) {
	hand := kernels.HandOptimized()
	var specs []Spec
	for _, k := range hand {
		specs = append(specs, s.SweepSpecs(k.Name)...)
	}
	if err := s.Prefetch(specs); err != nil {
		return Fig10Data{}, "", err
	}
	curves := map[string]alloc.Curve{}
	for _, k := range hand {
		curves[k.Name] = s.speedups(k.Name)
	}
	cmpKs := []int{1, 2, 4, 8, 16}
	sizes := []int{2, 4, 6, 8, 12, 16}
	d := Fig10Data{
		TFlexWS:   map[int]float64{},
		CMPWS:     map[int]map[int]float64{},
		Fractions: map[int]map[int]float64{},
	}
	header := []string{"threads", "TFlex"}
	for _, k := range cmpKs {
		header = append(header, fmt.Sprintf("CMP-%d", k))
	}
	header = append(header, "VB-CMP")
	t := stats.NewTable(header...)

	cmpSums := map[int]float64{}
	var tflexSum, vbSum float64
	seed := uint64(20070612)
	lcg := func() uint64 { seed = seed*6364136223846793005 + 1442695040888963407; return seed >> 17 }

	for _, size := range sizes {
		var tws, vws float64
		cws := map[int]float64{}
		fracs := map[int]float64{}
		assignCount := 0
		for w := 0; w < workloadsPerSize; w++ {
			var wl []alloc.Curve
			for a := 0; a < size; a++ {
				wl = append(wl, curves[hand[int(lcg())%len(hand)].Name])
			}
			assign, ws := alloc.BestWS(wl, compose.NumCores)
			tws += ws
			for _, a := range assign {
				fracs[a]++
				assignCount++
			}
			for _, k := range cmpKs {
				cws[k] += alloc.FixedWS(wl, k, compose.NumCores)
			}
			_, vb := alloc.VariableBestWS(wl, compose.NumCores, []int{1, 2, 4, 8, 16, 32})
			vws += vb
		}
		n := float64(workloadsPerSize)
		d.TFlexWS[size] = tws / n
		d.CMPWS[size] = map[int]float64{}
		row := []any{size, tws / n}
		for _, k := range cmpKs {
			d.CMPWS[size][k] = cws[k] / n
			row = append(row, cws[k]/n)
			cmpSums[k] += cws[k] / n
		}
		row = append(row, vws/n)
		t.Row(row...)
		tflexSum += tws / n
		vbSum += vws / n
		d.Fractions[size] = map[int]float64{}
		for g, c := range fracs {
			d.Fractions[size][g] = c / float64(assignCount)
		}
	}
	nSizes := float64(len(sizes))
	d.AvgTFlex = tflexSum / nSizes
	d.AvgVB = vbSum / nSizes
	for _, k := range cmpKs {
		if cmpSums[k]/nSizes > d.BestCMPAvg {
			d.BestCMPAvg = cmpSums[k] / nSizes
			d.BestCMPK = k
		}
	}
	for _, size := range sizes {
		d.MaxGain = max(d.MaxGain, d.TFlexWS[size]/d.CMPWS[size][d.BestCMPK])
	}

	out := "Figure 10: average weighted speedup per workload size\n" + t.String()
	out += fmt.Sprintf("\nAVG: TFlex %.3f, best fixed CMP-%d %.3f (TFlex %+.1f%%, max %+.1f%%), VB-CMP %.3f (TFlex %+.1f%%)\n",
		d.AvgTFlex, d.BestCMPK, d.BestCMPAvg,
		100*(d.AvgTFlex/d.BestCMPAvg-1), 100*(d.MaxGain-1),
		d.AvgVB, 100*(d.AvgTFlex/d.AvgVB-1))
	out += "\nallocation fractions (workload size -> granularity -> fraction of apps):\n"
	for _, size := range sizes {
		var parts []string
		for _, g := range []int{1, 2, 4, 8, 16, 32} {
			if f := d.Fractions[size][g]; f > 0 {
				parts = append(parts, fmt.Sprintf("%dc:%.0f%%", g, 100*f))
			}
		}
		out += fmt.Sprintf("  %2d threads: %s\n", size, strings.Join(parts, " "))
	}
	return d, out, nil
}
