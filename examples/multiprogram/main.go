// Multiprogram: run four different applications simultaneously on one
// chip, each on its own composed processor, sharing the L2 and the mesh —
// then compare symmetric and optimal asymmetric core allocations (the
// paper's §7 flexibility argument).
package main

import (
	"fmt"
	"log"

	"github.com/clp-sim/tflex"
	"github.com/clp-sim/tflex/internal/alloc"
	"github.com/clp-sim/tflex/internal/experiments"
)

func main() {
	apps := []string{"conv", "genalg", "bezier", "mcf"}

	// Measure each application's cores -> speedup curve.  The profiling
	// runs are independent simulations, so prefetch the whole matrix as
	// concurrent suite jobs and read the curves from their results.
	s := experiments.NewSuite(1)
	var specs []experiments.Spec
	for _, name := range apps {
		specs = append(specs, s.SweepSpecs(name)...)
	}
	if err := s.Prefetch(specs); err != nil {
		log.Fatal(err)
	}
	curves := make([]alloc.Curve, len(apps))
	for i, name := range apps {
		curve, err := s.Speedups(name)
		if err != nil {
			log.Fatal(err)
		}
		curves[i] = curve
	}

	// Symmetric CMP-8 vs the optimal asymmetric allocation.
	symWS := alloc.FixedWS(curves, 8, tflex.NumCores)
	assign, bestWS := alloc.BestWS(curves, tflex.NumCores)
	fmt.Printf("weighted speedup, 4 threads on 32 cores:\n")
	fmt.Printf("  CMP-8 (8 cores each):     %.3f\n", symWS)
	fmt.Printf("  TFlex optimal allocation: %.3f  (", bestWS)
	for i, a := range assign {
		if i > 0 {
			fmt.Print(", ")
		}
		fmt.Printf("%s:%dc", apps[i], a)
	}
	fmt.Println(")")

	// Now actually co-run the applications with the optimal allocation on
	// one chip, sharing L2 and networks.
	chip := tflex.NewChip(tflex.DefaultOptions())
	procs := make([]*tflex.Proc, len(apps))
	placed, err := tflex.PartitionAsymmetric(assign)
	if err != nil {
		log.Fatal(err)
	}
	for i, name := range apps {
		inst, err := tflex.BuildKernel(name, 1)
		if err != nil {
			log.Fatal(err)
		}
		procs[i], err = chip.AddProc(placed[i], inst.Prog)
		if err != nil {
			log.Fatal(err)
		}
		inst.Init(&procs[i].Regs, procs[i].Mem)
	}
	if err := chip.Run(2_000_000_000); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nco-scheduled run (shared L2 + mesh):")
	for i, name := range apps {
		fmt.Printf("  %-8s %dc  %8d cycles  IPC %.2f\n",
			name, assign[i], procs[i].Stats.Cycles, procs[i].Stats.IPC())
	}
}
