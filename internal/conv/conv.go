// Package conv implements a conventional out-of-order superscalar timing
// model (a Core2-class machine) driven by the linearized instruction
// traces produced by the functional executor.  The paper's Figure 5
// validates the TRIPS baseline against an Intel Core2 Duo in cycle counts;
// this model plays the Core2's role: 4-wide fetch/issue/commit, a
// ~96-entry reorder buffer, a gshare direction predictor with a BTB, a
// conventional cache hierarchy, and store-to-load forwarding.
package conv

import (
	"sync"

	"github.com/clp-sim/tflex/internal/exec"
	"github.com/clp-sim/tflex/internal/isa"
	"github.com/clp-sim/tflex/internal/mem"
	"github.com/clp-sim/tflex/internal/noc"
)

// Config parameterizes the conventional core.
type Config struct {
	FetchWidth  int
	IssueWidth  int
	CommitWidth int
	ROB         int
	PipelineLat uint64 // fetch-to-ready depth
	MispredPen  uint64

	GshareBits int
	BTBEntries int

	L1DBytes  int
	L1DAssoc  int
	L1DLat    uint64
	L1IBytes  int
	L1IAssoc  int
	L2Lat     uint64
	L2Bytes   int
	L2Assoc   int
	DRAMLat   uint64
	LineBytes int

	IntLat, MulLat, DivLat, FPLat, FDivLat uint64
}

// DefaultConfig returns the Core2-class configuration.
func DefaultConfig() Config {
	return Config{
		FetchWidth:  4,
		IssueWidth:  4,
		CommitWidth: 4,
		ROB:         96,
		PipelineLat: 5,
		MispredPen:  12,

		GshareBits: 13,
		BTBEntries: 4096,

		L1DBytes:  32 << 10,
		L1DAssoc:  8,
		L1DLat:    3,
		L1IBytes:  32 << 10,
		L1IAssoc:  8,
		L2Lat:     14,
		L2Bytes:   4 << 20,
		L2Assoc:   8,
		DRAMLat:   150,
		LineBytes: 64,

		IntLat: 1, MulLat: 3, DivLat: 22, FPLat: 4, FDivLat: 16,
	}
}

// Result summarizes a conventional-core run.
type Result struct {
	Cycles            uint64
	Insts             uint64
	BranchMispredicts uint64
	L1DMisses         uint64
	L2Misses          uint64
	IPC               float64
}

type recentStore struct {
	addr uint64
	size uint8
	done uint64
}

// state is the storage one Core2 model runs on: its caches, predictor
// tables, issue and commit rings, recent-store list and per-entry
// completion times.
type state struct {
	cfg                                    Config
	l1d, l1i, l2                           *mem.Cache
	gshare                                 []uint8
	btb                                    []uint64
	issue, loadPort, storePort, commitRing *noc.Ring
	stores                                 []recentStore
	done, commit                           []uint64 // grown to the longest trace run so far
}

// idle holds reset idle states by config, last released first taken, so a
// run builds no caches or tables for a config run before, under -race too.
var (
	idleMu sync.Mutex
	idle   = map[Config][]*state{}
)

func newState(cfg Config) *state {
	s := &state{
		cfg:        cfg,
		l1d:        mem.NewCache(cfg.L1DBytes, cfg.L1DAssoc, cfg.LineBytes),
		l1i:        mem.NewCache(cfg.L1IBytes, cfg.L1IAssoc, cfg.LineBytes),
		l2:         mem.NewCache(cfg.L2Bytes, cfg.L2Assoc, cfg.LineBytes),
		gshare:     make([]uint8, 1<<cfg.GshareBits),
		btb:        make([]uint64, cfg.BTBEntries),
		issue:      noc.NewRing(0, cfg.IssueWidth, cfg.IssueWidth),
		loadPort:   noc.NewRing(0, 1, 1),
		storePort:  noc.NewRing(0, 1, 1),
		commitRing: noc.NewRing(0, cfg.CommitWidth, cfg.CommitWidth),
		stores:     make([]recentStore, 0, 64),
	}
	s.reset()
	return s
}

// reset returns s to a new state's contents, keeping its storage;
// newState ends with it, so one place sets what a run changes.
func (s *state) reset() {
	s.l1d.Reset()
	s.l1i.Reset()
	s.l2.Reset()
	for i := range s.gshare {
		s.gshare[i] = 1 // weakly not-taken
	}
	clear(s.btb)
	s.issue.Reset(0)
	s.loadPort.Reset(0)
	s.storePort.Reset(0)
	s.commitRing.Reset(0)
}

// Run simulates the trace on the conventional core.
func Run(entries []exec.TraceEntry, cfg Config) Result {
	if len(entries) == 0 {
		return Result{}
	}
	var s *state
	idleMu.Lock()
	if n := len(idle[cfg]); n > 0 {
		s, idle[cfg] = idle[cfg][n-1], idle[cfg][:n-1]
	}
	idleMu.Unlock()
	if s == nil {
		s = newState(cfg)
	}
	res := s.run(entries)
	s.reset()
	idleMu.Lock()
	idle[cfg] = append(idle[cfg], s)
	idleMu.Unlock()
	return res
}

// run simulates the trace on s, a state as newState returns it.
func (s *state) run(entries []exec.TraceEntry) Result {
	var res Result
	cfg := &s.cfg
	n := len(entries)
	if cap(s.done) < n {
		s.done, s.commit = make([]uint64, n), make([]uint64, n)
	}
	done, commit := s.done[:n], s.commit[:n]
	clear(done)
	clear(commit)

	l1d, l1i, l2 := s.l1d, s.l1i, s.l2
	gshare, btb := s.gshare, s.btb
	var ghist uint64
	issue, loadPort, storePort, commitRing := s.issue, s.loadPort, s.storePort, s.commitRing

	stores := s.stores[:0] // a run starts with no recent store; the array is kept
	addStore := func(r recentStore) {
		if len(stores) == 64 {
			copy(stores, stores[1:])
			stores = stores[:63]
		}
		stores = append(stores, r)
	}

	memAccess := func(addr uint64, at uint64) uint64 {
		if _, hit := l1d.Access(addr, at); hit {
			return at + cfg.L1DLat
		}
		res.L1DMisses++
		var fill uint64
		if _, hit := l2.Access(addr, at); hit {
			fill = at + cfg.L1DLat + cfg.L2Lat
		} else {
			res.L2Misses++
			fill = at + cfg.L1DLat + cfg.L2Lat + cfg.DRAMLat
			l2.Fill(addr, fill)
		}
		l1d.Fill(addr, fill)
		return fill
	}

	opLat := func(e *exec.TraceEntry) uint64 {
		switch e.Op {
		case isa.OpMul:
			return cfg.MulLat
		case isa.OpDiv, isa.OpDivU, isa.OpMod:
			return cfg.DivLat
		case isa.OpFDiv, isa.OpFSqrt:
			return cfg.FDivLat
		}
		if e.Op.IsFP() {
			return cfg.FPLat
		}
		return cfg.IntLat
	}

	var fetchAt uint64
	fetchSlots := 0
	var lastCommit uint64

	for i := range entries {
		e := &entries[i]

		// Fetch: FetchWidth per cycle; a taken branch ends the group.
		if fetchSlots >= cfg.FetchWidth {
			fetchAt++
			fetchSlots = 0
		}
		// I-cache.
		if _, hit := l1i.Access(e.PC, fetchAt); !hit {
			var fill uint64
			if _, h2 := l2.Access(e.PC, fetchAt); h2 {
				fill = fetchAt + cfg.L2Lat
			} else {
				fill = fetchAt + cfg.L2Lat + cfg.DRAMLat
				l2.Fill(e.PC, fill)
			}
			l1i.Fill(e.PC, fill)
			fetchAt = fill
			fetchSlots = 0
		}
		// ROB occupancy: entry i needs entry i-ROB committed.
		if i >= cfg.ROB && commit[i-cfg.ROB] > fetchAt {
			fetchAt = commit[i-cfg.ROB]
			fetchSlots = 0
		}
		myFetch := fetchAt
		fetchSlots++

		ready := myFetch + cfg.PipelineLat
		if e.Src1 >= 0 && done[e.Src1] > ready {
			ready = done[e.Src1]
		}
		if e.Src2 >= 0 && done[e.Src2] > ready {
			ready = done[e.Src2]
		}

		switch {
		case e.IsLoad:
			// Store-to-load dependence: wait for the youngest older
			// overlapping store.
			forward := false
			for j := len(stores) - 1; j >= 0; j-- {
				st := &stores[j]
				if st.addr < e.Addr+uint64(e.Size) && e.Addr < st.addr+uint64(st.size) {
					if st.done > ready {
						ready = st.done
					}
					forward = true
					break
				}
			}
			at := loadPort.Reserve(issue.Reserve(ready, false), false)
			if forward {
				done[i] = at + 1
			} else {
				done[i] = memAccess(e.Addr, at)
			}
		case e.IsStore:
			at := storePort.Reserve(issue.Reserve(ready, false), false)
			done[i] = at + 1
			memAccess(e.Addr, at) // warms the cache; store buffer hides latency
			addStore(recentStore{addr: e.Addr, size: e.Size, done: done[i]})
		case e.IsBranch:
			at := issue.Reserve(ready, false)
			done[i] = at + cfg.IntLat
			// Prediction.
			idx := (e.PC ^ ghist) & uint64(len(gshare)-1)
			predTaken := gshare[idx] >= 2
			correct := predTaken == e.Taken
			if e.Taken {
				bi := (e.PC >> 2) % uint64(len(btb))
				if btb[bi] != e.Target {
					correct = false
				}
				btb[bi] = e.Target
			}
			if e.Taken && gshare[idx] < 3 {
				gshare[idx]++
			}
			if !e.Taken && gshare[idx] > 0 {
				gshare[idx]--
			}
			ghist = ghist<<1 | b2u(e.Taken)
			if !correct {
				res.BranchMispredicts++
				redirect := done[i] + cfg.MispredPen
				if redirect > fetchAt {
					fetchAt = redirect
					fetchSlots = 0
				}
			} else if e.Taken {
				// Taken branches end the fetch group.
				fetchAt++
				fetchSlots = 0
			}
		default:
			at := issue.Reserve(ready, false)
			done[i] = at + opLat(e)
		}

		// In-order commit.
		c := done[i]
		if lastCommit > c {
			c = lastCommit
		}
		c = commitRing.Reserve(c, false)
		commit[i] = c
		lastCommit = c
		res.Insts++
	}
	res.Cycles = lastCommit + 1
	if res.Cycles > 0 {
		res.IPC = float64(res.Insts) / float64(res.Cycles)
	}
	return res
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
