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
// carries the chip's event count, and /flight eventually serves a
// parseable dump of one ring holding every processor's records.
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
	// goroutine running the event loop, so registry and ring reads are
	// safe.
	s.Attach(chip, chip.SampleEvery(256))

	stop := make(chan struct{})
	var scrapers sync.WaitGroup
	var flightMu sync.Mutex
	var liveFlight *flight.Dump // first parseable /flight body seen mid-run
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
				res, err := http.Get(ts.URL + "/metrics")
				if err != nil {
					return
				}
				var snap map[string]float64
				derr := json.NewDecoder(res.Body).Decode(&snap)
				res.Body.Close()
				if derr != nil {
					t.Errorf("/metrics mid-run: %v", derr)
					return
				}

				res, err = http.Get(ts.URL + "/flight")
				if err != nil {
					return
				}
				fb, _ := io.ReadAll(res.Body)
				res.Body.Close()
				if bytes.Contains(fb, []byte("pending")) {
					continue // request registered; dump lands at the next sample
				}
				d, perr := flight.ParseDump(bytes.NewReader(fb))
				if perr != nil {
					t.Errorf("/flight mid-run unparseable: %v", perr)
					return
				}
				flightMu.Lock()
				if liveFlight == nil {
					liveFlight = d
				}
				flightMu.Unlock()
			}
		}()
	}

	if err := chip.Run(50_000_000); err != nil {
		t.Fatal(err)
	}
	close(stop)
	scrapers.Wait()

	// Final publish after the run, as tflex.RunMulti does.
	s.PublishChip(chip)

	res, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var snap map[string]float64
	if err := json.NewDecoder(res.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if snap["sim.events"] == 0 {
		t.Error("final /metrics carries no sim.events count")
	}

	flightMu.Lock()
	got := liveFlight
	flightMu.Unlock()
	if got == nil {
		// The run may have outpaced the two-scrape handshake; the
		// post-run publish must still satisfy a fresh request pair.
		http.Get(ts.URL + "/flight") //nolint:errcheck // arms the want flag
		s.PublishFlight(chip.FlightDump())
		res, err := http.Get(ts.URL + "/flight")
		if err != nil {
			t.Fatal(err)
		}
		defer res.Body.Close()
		got, err = flight.ParseDump(res.Body)
		if err != nil {
			t.Fatalf("post-run /flight unparseable: %v", err)
		}
	}
	if len(got.Rings) != 1 {
		t.Fatalf("flight dump served over /flight has %d rings, want 1", len(got.Rings))
	}
	procs := map[int16]bool{}
	for _, rc := range got.Records() {
		procs[rc.Proc] = true
	}
	if len(procs) != 4 {
		t.Errorf("the ring holds records of %d processors, want all 4", len(procs))
	}
}
