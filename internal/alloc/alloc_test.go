package alloc

import (
	"math"
	"testing"
	"testing/quick"
)

func linearCurve(slope float64) Curve {
	c := Curve{}
	for _, k := range []int{1, 2, 4, 8, 16, 32} {
		c[k] = 1 + slope*math.Log2(float64(k))
	}
	return c
}

func flatCurve() Curve {
	c := Curve{}
	for _, k := range []int{1, 2, 4, 8, 16, 32} {
		c[k] = 1.0
	}
	return c
}

func TestBestWSPrefersScalableApps(t *testing.T) {
	// One highly scalable app and three flat ones on 32 cores: the
	// scalable app should receive the most cores.
	curves := []Curve{linearCurve(1.0), flatCurve(), flatCurve(), flatCurve()}
	assign, ws := BestWS(curves, 32)
	if assign == nil {
		t.Fatal("infeasible?")
	}
	if assign[0] <= assign[1] {
		t.Fatalf("scalable app got %d cores, flat got %d", assign[0], assign[1])
	}
	total := 0
	for _, a := range assign {
		total += a
	}
	if total > 32 {
		t.Fatalf("allocated %d cores", total)
	}
	// WS must be at least the all-1-core baseline.
	if ws < 4 {
		t.Fatalf("ws = %v", ws)
	}
}

func TestBestWSOptimalVsBruteForce(t *testing.T) {
	curves := []Curve{linearCurve(0.8), linearCurve(0.3), linearCurve(0.5)}
	assign, ws := BestWS(curves, 16)
	// Brute force over all measured size triples.
	sizes := []int{1, 2, 4, 8, 16, 32}
	best := 0.0
	for _, a := range sizes {
		for _, b := range sizes {
			for _, c := range sizes {
				if a+b+c > 16 {
					continue
				}
				v := curves[0].At(a) + curves[1].At(b) + curves[2].At(c)
				if v > best {
					best = v
				}
			}
		}
	}
	if math.Abs(ws-best) > 1e-9 {
		t.Fatalf("DP ws %v != brute force %v (assign %v)", ws, best, assign)
	}
}

func TestBestWSInfeasible(t *testing.T) {
	curves := make([]Curve, 40) // 40 apps, 32 cores
	for i := range curves {
		curves[i] = flatCurve()
	}
	if assign, _ := BestWS(curves, 32); assign != nil {
		t.Fatal("40 apps on 32 cores should be infeasible")
	}
}

func TestBestWSNeverWorseThanSymmetric(t *testing.T) {
	f := func(s1, s2, s3, s4 uint8) bool {
		curves := []Curve{
			linearCurve(float64(s1%40) / 20),
			linearCurve(float64(s2%40) / 20),
			linearCurve(float64(s3%40) / 20),
			linearCurve(float64(s4%40) / 20),
		}
		_, ws := BestWS(curves, 32)
		_, vb := VariableBestWS(curves, 32, []int{1, 2, 4, 8, 16, 32})
		return ws >= vb-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestFixedWSCapacityRule(t *testing.T) {
	curves := []Curve{flatCurve(), flatCurve(), flatCurve(), flatCurve()}
	// CMP-16 on 32 cores: 2 processors; 4 apps => WS stays at 2 apps.
	if ws := FixedWS(curves, 16, 32); ws != 2 {
		t.Fatalf("CMP-16 ws = %v, want 2", ws)
	}
	if ws := FixedWS(curves, 8, 32); ws != 4 {
		t.Fatalf("CMP-8 ws = %v, want 4", ws)
	}
}

func TestVariableBestPicksGoodGranularity(t *testing.T) {
	// Two very scalable apps: VB should pick 16 cores each.
	curves := []Curve{linearCurve(1.5), linearCurve(1.5)}
	k, _ := VariableBestWS(curves, 32, []int{1, 2, 4, 8, 16, 32})
	if k != 16 {
		t.Fatalf("VB granularity = %d, want 16", k)
	}
}
