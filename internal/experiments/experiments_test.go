package experiments

import (
	"strings"
	"testing"
)

// The paper's shapes are judged in paper_test.go; these tests check that
// the configuration tables print.

func suite(t *testing.T) *Suite {
	t.Helper()
	return NewSuite(1)
}

func TestTable1Prints(t *testing.T) {
	s := Table1()
	for _, want := range []string{"8KB", "128-entry window", "44-entry LSQ", "4MB S-NUCA", "150-cycle"} {
		if !strings.Contains(s, want) {
			t.Errorf("Table 1 missing %q", want)
		}
	}
}

func TestTable2Prints(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full sweep")
	}
	s := suite(t)
	out, err := s.Table2()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"TFlex core total", "TRIPS processor total", "clock tree", "leakage"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 2 missing %q", want)
		}
	}
}
