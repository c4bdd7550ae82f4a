package obs

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"github.com/clp-sim/tflex/internal/compose"
	"github.com/clp-sim/tflex/internal/flight"
	"github.com/clp-sim/tflex/internal/isa"
	"github.com/clp-sim/tflex/internal/prog"
	"github.com/clp-sim/tflex/internal/sim"
)

func loopProgram(t *testing.T) *prog.Program {
	b := prog.NewBuilder()
	bb := b.Block("loop")
	i := bb.Read(2)
	acc := bb.Read(3)
	n := bb.Read(1)
	bb.Write(3, bb.Add(acc, i))
	i2 := bb.AddI(i, 1)
	bb.Write(2, i2)
	bb.BranchIf(bb.Op(isa.OpLt, i2, n), "loop", "done")
	b.Block("done").Halt()
	p, err := b.Program("loop")
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestFlightUnderFourProcessorRun is the end-to-end race gate for the
// on-demand flight endpoint: a live four-processor chip publishes from
// its sampler notify hook (on the event-loop goroutine) while HTTP
// scrapers hammer /metrics and /flight.  Run under -race in CI.  Beyond
// freedom from races it checks the acceptance contract: /metrics
// carries the chip's event count, and /flight serves parseable dumps
// taken mid-run, whose ring holds every processor's records and whose
// in-flight half names blocks the processors had not retired yet.
func TestFlightUnderFourProcessorRun(t *testing.T) {
	s := New()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	chip := sim.New(sim.DefaultOptions())
	chip.EnableFlight(1024)
	p := loopProgram(t)
	for _, at := range [][2]int{{0, 0}, {2, 0}, {0, 1}, {2, 1}} {
		pr, err := chip.AddProc(compose.MustRect(at[0], at[1], 2), p)
		if err != nil {
			t.Fatal(err)
		}
		pr.Regs[1] = 20_000
	}
	// Attach publishes from the sampler notify hook: it fires on the
	// goroutine running the event loop, so registry, ring and window
	// reads are safe.
	s.Attach(chip, chip.SampleEvery(256))

	get := func(path string) []byte {
		res, err := http.Get(ts.URL + path)
		if err != nil {
			return nil
		}
		defer res.Body.Close()
		b, _ := io.ReadAll(res.Body)
		return b
	}
	// Arm a dump before the run, so the first sample point publishes one.
	if b := get("/flight"); !bytes.Contains(b, []byte("pending")) {
		t.Fatalf("/flight before the run = %q, want pending", b)
	}

	var mu sync.Mutex
	var live []*flight.Dump // every /flight dump parsed while the run went on
	check := func(fb []byte) bool {
		d, err := flight.ParseDump(bytes.NewReader(fb))
		if err != nil {
			t.Errorf("/flight mid-run unparseable: %v", err)
			return false
		}
		mu.Lock()
		live = append(live, d)
		mu.Unlock()
		return true
	}
	stop := make(chan struct{})
	var scrapers sync.WaitGroup
	for g := 0; g < 3; g++ {
		scrapers.Add(1)
		go func() {
			defer scrapers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				var snap map[string]float64
				if err := json.Unmarshal(get("/metrics"), &snap); err != nil {
					t.Errorf("/metrics mid-run: %v", err)
					return
				}
				fb := get("/flight")
				if bytes.Contains(fb, []byte("pending")) {
					continue // request registered; dump lands at the next sample
				}
				if !check(fb) {
					return
				}
			}
		}()
	}

	if err := chip.Run(50_000_000); err != nil {
		t.Fatal(err)
	}
	close(stop)
	scrapers.Wait()
	// The last dump published from inside the run is still the one served.
	check(get("/flight"))

	// Final publish after the run, as tflex.RunMulti does.
	s.PublishChip(chip)
	var snap map[string]float64
	if err := json.Unmarshal(get("/metrics"), &snap); err != nil {
		t.Fatal(err)
	}
	if snap["sim.events"] == 0 {
		t.Error("final /metrics carries no sim.events count")
	}

	inFlight := 0
	for _, d := range live {
		procs := map[int16]bool{}
		for _, rc := range d.Recs {
			procs[rc.Proc] = true
		}
		if len(procs) != 4 {
			t.Errorf("a live dump's ring holds records of %d processors, want all 4", len(procs))
		}
		for _, b := range d.InFlight {
			if b.Proc < 0 || b.Proc > 3 || b.RetiredAt != 0 || b.Name != "loop" && b.Name != "done" {
				t.Errorf("in-flight entry %+v: not a live block of the four processors", b)
			}
		}
		inFlight += len(d.InFlight)
	}
	if inFlight == 0 {
		t.Errorf("none of the %d dumps /flight served mid-run carries a block in flight", len(live))
	}
}
