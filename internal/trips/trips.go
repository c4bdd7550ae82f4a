// Package trips configures the simulator as the fixed-granularity TRIPS
// baseline of the paper: the same EDGE ISA and execution substrate, but
// with the prototype's centralized structures and narrower resources.
//
// Differences from a TFlex composition (paper §5 and §6):
//
//   - 16 single-issue execution tiles in a 4x4 array (TFlex cores are
//     dual-issue with one FP pipe);
//   - a 1024-instruction window as 8 blocks of 128 (64 window entries per
//     tile), rather than one block per participating core;
//   - a centralized next-block predictor and block control at one tile,
//     so predictor capacity does not scale and all block-management
//     traffic converges on one corner of the array;
//   - 4 D-cache/LSQ banks along one edge and 4 register banks along
//     another, instead of per-core banks;
//   - half the operand network bandwidth (the paper doubles it for TFlex).
package trips

import (
	"github.com/clp-sim/tflex/internal/compose"
	"github.com/clp-sim/tflex/internal/sim"
)

// NumTiles is the number of TRIPS execution tiles.
const NumTiles = 16

// Options returns simulator options modeling the TRIPS prototype
// microarchitecture (with the paper's 4MB L2 for fair comparison).
func Options() sim.Options {
	o := sim.DefaultOptions()
	o.Params.IssueTotal = 1
	o.Params.IssueFP = 1
	o.Params.OperandBW = 1 // TFlex doubles this
	o.Params.DispatchBW = 1
	o.Params.WindowEntries = 64 // 8 blocks x 128 insts over 16 tiles
	o.CentralPredictor = true
	// D-tiles on the west edge of the 4x4 array (participating indices of
	// column 0), register tiles on the north edge (row 0).
	o.DBanks = []int{0, 4, 8, 12}
	o.RegBanks = []int{0, 1, 2, 3}
	return o
}

// Processor returns the 16-tile array as a composed-processor descriptor
// (the 4x4 rectangle at the array origin).
func Processor() compose.Processor {
	return compose.MustRect(0, 0, NumTiles)
}
