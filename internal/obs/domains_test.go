package obs

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
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

// TestDomainsAndFlightUnderMultiDomainRun is the end-to-end race gate
// for the scheduler-observability endpoints: a live four-domain chip
// publishes from its sampler notify hook (on the event-loop goroutine)
// while HTTP scrapers hammer /domains and /flight.  Run under -race in
// CI.  Beyond freedom from races it checks the acceptance contract:
// /domains reports window and barrier-wait stats for all four domains,
// and /flight eventually serves a parseable dump on demand.
func TestDomainsAndFlightUnderMultiDomainRun(t *testing.T) {
	s := New()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Before any publish: an empty array, not an error.
	res, err := http.Get(ts.URL + "/domains")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(res.Body)
	res.Body.Close()
	if res.StatusCode != 200 || strings.TrimSpace(string(body)) != "[]" {
		t.Fatalf("empty /domains = %d %q", res.StatusCode, body)
	}

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
	// Publish from the sampler notify hook: it fires on the goroutine
	// running the event loop, so DomainStats/FlightDump reads are safe.
	chip.SampleEvery(256).SetNotify(func(uint64, []string, []float64) {
		s.PublishDomains(chip.DomainStats())
		if s.FlightWanted() {
			s.PublishFlight(chip.FlightDump())
		}
	})

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
				res, err := http.Get(ts.URL + "/domains")
				if err != nil {
					return
				}
				var ds []flight.DomainStats
				derr := json.NewDecoder(res.Body).Decode(&ds)
				res.Body.Close()
				if derr != nil {
					t.Errorf("/domains mid-run: %v", derr)
					return
				}
				// Snapshot consistency: all four domains or none yet,
				// never a torn prefix.
				if len(ds) != 0 && len(ds) != 4 {
					t.Errorf("/domains served %d domains, want 0 or 4", len(ds))
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

	// Final publish after the run, as tflex.Run does.
	s.PublishDomains(chip.DomainStats())
	if s.FlightWanted() {
		s.PublishFlight(chip.FlightDump())
	}

	res, err = http.Get(ts.URL + "/domains")
	if err != nil {
		t.Fatal(err)
	}
	var ds []flight.DomainStats
	if err := json.NewDecoder(res.Body).Decode(&ds); err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if len(ds) != 4 {
		t.Fatalf("final /domains served %d domains, want 4", len(ds))
	}
	var windows, barrier uint64
	for _, d := range ds {
		windows += d.Windows
		barrier += d.BarrierWait
	}
	if windows == 0 {
		t.Error("no lockstep windows reported across four domains")
	}
	if barrier == 0 {
		t.Error("no barrier wait cycles reported across four domains")
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
	if len(got.Rings) == 0 {
		t.Fatal("flight dump served over /flight has no rings")
	}
	if len(got.Records(flight.KBarrierRelease)) == 0 {
		t.Error("flight dump has no barrier-release records from the four-domain run")
	}
}
