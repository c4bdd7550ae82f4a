// Package area reconstructs the paper's Table 2 area model.  The original
// numbers come from the post-synthesis netlist of the 130nm TRIPS ASIC;
// here the per-component areas are reconstructed to preserve the paper's
// headline constraint — an eight-core TFlex processor occupies the same
// area (and issue width) as one TRIPS processor — so every area-derived
// result (Figure 7) is a ratio that survives the substitution.
package area

// Component is one microarchitectural area entry (130nm, mm²).
type Component struct {
	Name string
	MM2  float64
}

// TFlexCore lists the area of one TFlex core's components.
func TFlexCore() []Component {
	return []Component{
		{"8KB I-cache", 1.00},
		{"next-block predictor", 1.05},
		{"128-entry register file", 0.80},
		{"128-entry issue window", 2.20},
		{"integer ALUs (2)", 0.80},
		{"FPU", 1.90},
		{"8KB D-cache", 1.40},
		{"44-entry LSQ bank", 1.00},
		{"operand/control routers", 0.80},
		{"block control & commit", 0.60},
	}
}

// TRIPSProcessor lists the area of one TRIPS processor's tiles.
func TRIPSProcessor() []Component {
	return []Component{
		{"5 I-tiles (I-cache)", 6.00},
		{"G-tile (predictor, block control)", 3.00},
		{"4 R-tiles (register files)", 4.00},
		{"16 E-tiles (window + INT + FPU)", 54.40},
		{"4 D-tiles (D-cache + LSQ)", 12.00},
		{"operand network routers/wires", 9.00},
	}
}

func sum(cs []Component) float64 {
	t := 0.0
	for _, c := range cs {
		t += c.MM2
	}
	return t
}

// TFlexCoreArea returns one core's area in mm².
func TFlexCoreArea() float64 { return sum(TFlexCore()) }

// TFlexArea returns the area of an n-core composition.
func TFlexArea(n int) float64 { return float64(n) * TFlexCoreArea() }

// TRIPSArea returns the TRIPS processor area.
func TRIPSArea() float64 { return sum(TRIPSProcessor()) }

// PerfPerArea computes the paper's Figure 7 metric: 1/(cycles x mm²).
func PerfPerArea(cycles uint64, mm2 float64) float64 {
	if cycles == 0 || mm2 <= 0 {
		return 0
	}
	return 1.0 / (float64(cycles) * mm2)
}
