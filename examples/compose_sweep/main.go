// Compose sweep: run benchmarks with different ILP characters across
// every composition size and find the best composition per application —
// the adaptivity argument of the paper's Figure 6.
//
// The full benchmark × composition-size matrix is prefetched up front as
// concurrent suite jobs (every cell is an independent simulation), then
// the table renders from their results.
package main

import (
	"fmt"
	"log"

	"github.com/clp-sim/tflex"
	"github.com/clp-sim/tflex/internal/experiments"
)

func main() {
	benchmarks := []string{"conv", "ct", "dither", "mcf"}

	s := experiments.NewSuite(2)
	var specs []experiments.Spec
	for _, name := range benchmarks {
		specs = append(specs, s.SweepSpecs(name)...)
	}
	if err := s.Prefetch(specs); err != nil {
		log.Fatal(err)
	}

	fmt.Println("speedup over a single core (higher is better):")
	fmt.Printf("%-8s", "bench")
	for _, n := range tflex.CompositionSizes() {
		fmt.Printf("  %5dc", n)
	}
	fmt.Printf("  %s\n", "best")

	for _, name := range benchmarks {
		curve, err := s.Speedups(name) // all cache hits after Prefetch
		if err != nil {
			log.Fatal(err)
		}
		best, bestN := 0.0, 1
		fmt.Printf("%-8s", name)
		for _, n := range tflex.CompositionSizes() {
			sp := curve[n]
			if sp > best {
				best, bestN = sp, n
			}
			fmt.Printf("  %6.2f", sp)
		}
		fmt.Printf("  %d cores\n", bestN)
	}
	fmt.Println("\nhigh-ILP kernels keep scaling; pointer-chasing mcf peaks early —")
	fmt.Println("a CLP can give each application its best composition.")
}
