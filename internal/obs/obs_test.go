package obs

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/clp-sim/tflex/internal/critpath"
	"github.com/clp-sim/tflex/internal/telemetry"
)

func TestMetricsEndpointServesPublishedSnapshot(t *testing.T) {
	s := New()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Before any publish: an empty JSON object, not an error.
	res, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(res.Body)
	res.Body.Close()
	if res.StatusCode != 200 || strings.TrimSpace(string(body)) != "{}" {
		t.Fatalf("empty metrics = %d %q", res.StatusCode, body)
	}

	s.publishMetrics(telemetry.Snapshot{"proc0.cycles": 42, "bad.mean": nan()})
	res, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var snap map[string]float64
	if err := json.NewDecoder(res.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if snap["proc0.cycles"] != 42 {
		t.Fatalf("snapshot = %v", snap)
	}
	if snap["bad.mean"] != 0 {
		t.Fatalf("non-finite value must be zeroed, got %v", snap["bad.mean"])
	}
}

func nan() float64 {
	zero := 0.0
	return zero / zero
}

func TestCritPathEndpoint(t *testing.T) {
	s := New()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var bd critpath.Breakdown
	bd[critpath.Commit] = 10
	bd[critpath.NoCHop] = 5
	s.Rolling().Add(bd)

	res, err := http.Get(ts.URL + "/critpath")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	var doc struct {
		Blocks     uint64            `json:"blocks"`
		Cycles     uint64            `json:"cycles"`
		Categories map[string]uint64 `json:"categories"`
	}
	if err := json.NewDecoder(res.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if doc.Blocks != 1 || doc.Cycles != 15 || doc.Categories["commit"] != 10 {
		t.Fatalf("critpath doc = %+v", doc)
	}
}

func TestEventsStreamDeliversSamples(t *testing.T) {
	s := New()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	res, err := http.Get(ts.URL + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if ct := res.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content-type = %q", ct)
	}

	// The subscriber registers before the handler writes the header, so
	// poll-publish until the first line lands.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-done:
				return
			default:
				s.publishSample(4096, []string{"proc0.window.occupancy"}, []float64{3})
				time.Sleep(time.Millisecond)
			}
		}
	}()
	r := bufio.NewReader(res.Body)
	line, err := r.ReadString('\n')
	done <- struct{}{}
	<-done
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(line, "data: ") {
		t.Fatalf("SSE line = %q", line)
	}
	var ev struct {
		Cycle  uint64             `json:"cycle"`
		Series map[string]float64 `json:"series"`
	}
	if err := json.Unmarshal([]byte(strings.TrimPrefix(strings.TrimSpace(line), "data: ")), &ev); err != nil {
		t.Fatal(err)
	}
	if ev.Cycle != 4096 || ev.Series["proc0.window.occupancy"] != 3 {
		t.Fatalf("event = %+v", ev)
	}
}

func TestPprofMounted(t *testing.T) {
	s := New()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	res, err := http.Get(ts.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != 200 {
		t.Fatalf("pprof cmdline = %d", res.StatusCode)
	}
}

func TestStartCloseAndIndex(t *testing.T) {
	s := New()
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if s.Addr() != addr {
		t.Fatalf("Addr() = %q, want %q", s.Addr(), addr)
	}
	res, err := http.Get("http://" + addr + "/")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(res.Body)
	res.Body.Close()
	if !strings.Contains(string(body), "/critpath") {
		t.Fatalf("index = %q", body)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
}

// TestConcurrentPublishAndScrape is the package-level race gate:
// publishers (simulating chip event loops) and scrapers (HTTP clients)
// hammer the server concurrently.  Run under -race in CI.
func TestConcurrentPublishAndScrape(t *testing.T) {
	s := New()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var pubs, scrapers sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 2; g++ {
		pubs.Add(1)
		go func(g int) {
			defer pubs.Done()
			var bd critpath.Breakdown
			bd[critpath.ALUOccupancy] = uint64(g + 1)
			for i := 0; i < 200; i++ {
				s.publishMetrics(telemetry.Snapshot{"x": float64(i)})
				s.publishSample(uint64(i), []string{"x"}, []float64{float64(i)})
				s.Rolling().Add(bd)
			}
		}(g)
	}
	for g := 0; g < 4; g++ {
		scrapers.Add(1)
		go func() {
			defer scrapers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, path := range []string{"/metrics", "/critpath"} {
					res, err := http.Get(ts.URL + path)
					if err != nil {
						return
					}
					io.Copy(io.Discard, res.Body) //nolint:errcheck
					res.Body.Close()
				}
			}
		}()
	}
	pubs.Wait()
	close(stop)
	scrapers.Wait()
	if snap := s.Rolling().Snapshot(); snap.Blocks != 400 {
		t.Fatalf("rolling blocks = %d, want 400", snap.Blocks)
	}
}
