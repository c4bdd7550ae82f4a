// Package alloc implements the core-allocation policies of paper §7: the
// optimal dynamic-programming assignment of cores to applications that
// maximizes weighted speedup on a TFlex CLP, the fixed-granularity CMP-k
// policies, and the hypothetical symmetric "variable best" CMP.
//
// Following the paper's methodology, each application's performance is an
// offline cores→speedup function measured by the Figure 6 experiment
// (speedup relative to one core), and weighted speedup is the sum of
// per-application speedups at their assigned core counts.
package alloc

import "sort"

// Curve maps a composition size to the application's speedup over one core.
type Curve map[int]float64

// At returns the speedup at exactly k cores (0 if unmeasured).
func (c Curve) At(k int) float64 { return c[k] }

// Sizes returns the measured composition sizes in ascending order.
func (c Curve) Sizes() []int {
	var s []int
	for k := range c {
		s = append(s, k)
	}
	sort.Ints(s)
	return s
}

// BestWS computes the optimal asymmetric assignment: core counts per
// application (each a measured size, minimum one core) summing to at most
// totalCores, maximizing the weighted speedup.  This is the paper's
// dynamic-programming algorithm.
func BestWS(curves []Curve, totalCores int) (assign []int, ws float64) {
	n := len(curves)
	if n == 0 {
		return nil, 0
	}
	const neg = -1e18
	// f[i][c]: best WS for applications i.. with c cores available.
	f := make([][]float64, n+1)
	choice := make([][]int, n+1)
	for i := range f {
		f[i] = make([]float64, totalCores+1)
		choice[i] = make([]int, totalCores+1)
	}
	for i := n - 1; i >= 0; i-- {
		sizes := curves[i].Sizes()
		for c := 0; c <= totalCores; c++ {
			f[i][c] = neg
			for _, s := range sizes {
				if s > c {
					break
				}
				v := curves[i].At(s) + f[i+1][c-s]
				if v > f[i][c] {
					f[i][c] = v
					choice[i][c] = s
				}
			}
		}
	}
	if f[0][totalCores] <= neg/2 {
		return nil, 0 // infeasible: more applications than cores
	}
	assign = make([]int, n)
	c := totalCores
	for i := 0; i < n; i++ {
		assign[i] = choice[i][c]
		c -= assign[i]
	}
	return assign, f[0][totalCores]
}

// FixedWS computes weighted speedup on a fixed CMP of processors with k
// cores each.  Per the paper's methodology, when the workload exceeds the
// processor count the weighted speedup stays constant at capacity (the
// surplus applications contribute nothing extra).
func FixedWS(curves []Curve, k, totalCores int) float64 {
	procs := totalCores / k
	ws := 0.0
	for i, c := range curves {
		if i >= procs {
			break
		}
		ws += c.At(k)
	}
	return ws
}

// VariableBestWS computes the best symmetric dynamic CMP (paper's "VB
// CMP"): all processors share one granularity, chosen per workload.
func VariableBestWS(curves []Curve, totalCores int, sizes []int) (bestK int, ws float64) {
	for _, k := range sizes {
		v := FixedWS(curves, k, totalCores)
		if v > ws {
			ws = v
			bestK = k
		}
	}
	return
}
