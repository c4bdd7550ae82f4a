// Package obs is the live observability server: a stdlib-only net/http
// endpoint that exposes a running simulation's telemetry and
// critical-path attribution while multi-minute sweeps are in flight.
//
// Endpoints:
//
//	/metrics      latest telemetry registry snapshot (JSON)
//	/critpath     rolling critical-path attribution aggregate (JSON)
//	/events       SSE stream of cycle-sampler rows
//	/flight       on-demand flight-recorder dump: ring and blocks in flight (JSON)
//	/debug/pprof  the standard Go profiling endpoints
//
// Sharing model: the simulator's counter views are plain fields written
// by the chip's event-loop goroutine, so scraping them directly from an
// HTTP handler would race.  Instead the sim side *publishes*: Attach
// hooks the cycle sampler's notify (and the driver calls PublishChip
// once after the run), so snapshots are taken on the goroutine that owns
// the counters, and handlers serve only the last published copy.  The
// /critpath aggregate is a critpath.Rolling, which carries its own
// mutex and is safe to feed from many concurrent simulations (the
// experiment suite's worker pool).
package obs

import (
	"encoding/json"
	"fmt"
	"math"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"sync/atomic"

	"github.com/clp-sim/tflex/internal/critpath"
	"github.com/clp-sim/tflex/internal/flight"
	"github.com/clp-sim/tflex/internal/sim"
	"github.com/clp-sim/tflex/internal/telemetry"
)

// Server accumulates published observability state and serves it over
// HTTP.  The zero value is usable; New is provided for symmetry.
type Server struct {
	mu      sync.Mutex
	snap    telemetry.Snapshot
	subs    map[int]chan []byte
	nextSub int
	ln      net.Listener
	srv     *http.Server

	flightDump *flight.Dump
	flightWant atomic.Bool // a client asked for a dump since PublishChip last stored one

	roll critpath.Rolling
}

// New returns an idle server; call Start (or mount Handler yourself).
func New() *Server { return &Server{} }

// Rolling returns the critical-path aggregate handlers read.
func (s *Server) Rolling() *critpath.Rolling { return &s.roll }

// Attach wires a chip into the server before it runs: critical-path
// attribution is armed and feeds the rolling /critpath aggregate, and
// every row samp records is fanned out to /events followed by
// PublishChip.  The sampler's notify hook fires on the goroutine
// running the chip's event loop, so handlers never read live counters
// or the ring.  Call PublishChip once more after the run, for the
// final state.
func (s *Server) Attach(chip *sim.Chip, samp *telemetry.Sampler) {
	chip.SetCritPathSink(&s.roll)
	chip.Telemetry() // built now, so that its histograms see every block
	samp.SetNotify(func(cycle uint64, names []string, row []float64) {
		s.publishSample(cycle, names, row)
		s.PublishChip(chip)
	})
}

// PublishChip publishes the chip's registry snapshot for /metrics and,
// when a client has asked for one, its flight ring for /flight (the
// request stays pending on a chip without a recorder).  Call it from
// the goroutine running the chip: inside a sampler notify hook, or
// after Run returns.
func (s *Server) PublishChip(chip *sim.Chip) {
	s.publishMetrics(chip.Telemetry().Snapshot())
	if s.flightWant.Load() {
		if d := chip.FlightDump(); d != nil {
			s.mu.Lock()
			s.flightDump = d
			s.mu.Unlock()
			s.flightWant.Store(false)
		}
	}
}

// publishMetrics stores the snapshot served by /metrics.  Call it from
// the goroutine that owns the registry's counter views (the sampler
// notify hook, or after the run): the snapshot is taken there, so
// handlers never touch live counters.  Non-finite values are zeroed —
// the snapshot is owned by the caller until published, shared read-only
// after.
func (s *Server) publishMetrics(snap telemetry.Snapshot) {
	for k, v := range snap {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			snap[k] = 0
		}
	}
	s.mu.Lock()
	s.snap = snap
	s.mu.Unlock()
}

// publishSample fans one sampler row out to /events subscribers as a
// JSON object.  Slow subscribers drop rows rather than stall the
// publisher (the simulation must never block on an HTTP client).
func (s *Server) publishSample(cycle uint64, names []string, row []float64) {
	series := make(map[string]float64, len(names))
	for i, n := range names {
		if i < len(row) {
			series[n] = row[i]
		}
	}
	payload, err := json.Marshal(struct {
		Cycle  uint64             `json:"cycle"`
		Series map[string]float64 `json:"series"`
	}{cycle, series})
	if err != nil {
		return
	}
	s.mu.Lock()
	//lint:allow determinism subscribers are independent SSE streams; each sees its own rows in order and no simulation state depends on delivery order across subscribers
	for _, ch := range s.subs {
		select {
		case ch <- payload:
		default:
		}
	}
	s.mu.Unlock()
}

func (s *Server) subscribe() (int, chan []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.subs == nil {
		s.subs = map[int]chan []byte{}
	}
	id := s.nextSub
	s.nextSub++
	ch := make(chan []byte, 64)
	s.subs[id] = ch
	return id, ch
}

func (s *Server) unsubscribe(id int) {
	s.mu.Lock()
	delete(s.subs, id)
	s.mu.Unlock()
}

// Handler returns the server's route table, for mounting in tests or a
// caller-owned http.Server.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/", s.handleIndex)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/critpath", s.handleCritPath)
	mux.HandleFunc("/events", s.handleEvents)
	mux.HandleFunc("/flight", s.handleFlight)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, "tflex observability server\n\n"+
		"  /metrics       latest telemetry snapshot (JSON)\n"+
		"  /critpath      rolling critical-path attribution (JSON)\n"+
		"  /events        SSE stream of sampler rows\n"+
		"  /flight        flight-recorder ring dump (JSON)\n"+
		"  /debug/pprof/  Go profiling endpoints\n")
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	snap := s.snap
	s.mu.Unlock()
	if snap == nil {
		snap = telemetry.Snapshot{}
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(snap) //nolint:errcheck // client went away
}

// handleFlight serves the last published ring dump and flags a fresh
// capture at the sim side's next notify hook.  The first request
// of a run typically sees {"pending":true}; scrape twice (or poll) to
// get a dump taken after the flag was raised.
func (s *Server) handleFlight(w http.ResponseWriter, _ *http.Request) {
	s.flightWant.Store(true)
	s.mu.Lock()
	d := s.flightDump
	s.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	if d == nil {
		fmt.Fprint(w, "{\"pending\":true}\n")
		return
	}
	d.WriteJSON(w) //nolint:errcheck // client went away
}

func (s *Server) handleCritPath(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	s.roll.WriteJSON(w) //nolint:errcheck // client went away
}

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	id, ch := s.subscribe()
	defer s.unsubscribe(id)
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	fl.Flush()
	for {
		select {
		case payload := <-ch:
			fmt.Fprintf(w, "data: %s\n\n", payload)
			fl.Flush()
		case <-r.Context().Done():
			return
		}
	}
}

// Start listens on addr (":0" picks a free port) and serves in a
// background goroutine.  Returns the bound address for logging/curling.
func (s *Server) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: s.Handler()}
	s.mu.Lock()
	s.ln = ln
	s.srv = srv
	s.mu.Unlock()
	go srv.Serve(ln) //nolint:errcheck // returns ErrServerClosed on Close
	return ln.Addr().String(), nil
}

// Addr returns the bound address ("" before Start).
func (s *Server) Addr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Close shuts the listener and all in-flight requests down.  Safe to
// call without Start.
func (s *Server) Close() error {
	s.mu.Lock()
	srv := s.srv
	s.srv, s.ln = nil, nil
	s.mu.Unlock()
	if srv == nil {
		return nil
	}
	return srv.Close()
}
