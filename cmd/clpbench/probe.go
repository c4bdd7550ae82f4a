package main

import "time"

// The build host is a guest on a shared machine: the same pass takes 20
// to 50 % longer for seconds or minutes at a time while other tenants
// load the caches and memory, and no statistic of the passes of one run
// averages that out (README.md, "Steadiness", has the measurements).  So
// every timed pass carries a measurement of the host beside it.
//
// hostProbe is that measurement: a fixed, deterministic piece of work
// that shares no code with the simulator — an event heap over a table
// larger than the private caches, which other tenants slow about as much
// as they slow the simulator (log-log slope 0.8 to 1.2 over ten-minute
// series; a register-only loop barely notices them, and a pure pointer
// chase follows the simulator less closely).  Slices of it run between
// the jobs of a pass, one per probePeriod of work; their time is taken
// out of the pass, and the pass's seconds are divided by how much slower
// than probeQuiet the slices ran.  A change to the simulator cannot make
// the probe's work cheaper, so it moves the scaled seconds as it moves
// seconds on a quiet host.
type hostProbe struct {
	heap  []probeEvent
	table []uint64
	mark  time.Time     // work since here has not been probed yet
	busy  time.Duration // time inside slices since begin
	n     int           // slices since begin
}

type probeEvent struct {
	at uint64
	id uint32
}

const (
	probeEvents = 30_000                // heap pops and pushes per slice
	probePeriod = 50 * time.Millisecond // work per slice: the probe adds a tenth to a run
	// probeQuiet is a slice's seconds on the build host (2.1 GHz Xeon
	// guest) with no other tenant active; it only sets the scale, so that
	// scaled seconds read as that host's quiet seconds.
	probeQuiet = 0.0060
)

func newHostProbe() *hostProbe {
	p := &hostProbe{table: make([]uint64, 1<<20), heap: make([]probeEvent, 0, 4096)}
	for i := range p.table {
		p.table[i] = uint64(i) * 0x9E3779B97F4A7C15
	}
	for i := 0; i < cap(p.heap); i++ {
		p.push(probeEvent{uint64(i * 7 % 97), uint32(i)})
	}
	p.begin()
	return p
}

func (p *hostProbe) push(e probeEvent) {
	h := append(p.heap, e)
	for i := len(h) - 1; i > 0; {
		up := (i - 1) / 2
		if h[up].at <= h[i].at {
			break
		}
		h[up], h[i] = h[i], h[up]
		i = up
	}
	p.heap = h
}

func (p *hostProbe) pop() probeEvent {
	h := p.heap
	e := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	for i := 0; ; {
		l := 2*i + 1
		if l >= n {
			break
		}
		if l+1 < n && h[l+1].at < h[l].at {
			l++
		}
		if h[i].at <= h[l].at {
			break
		}
		h[i], h[l] = h[l], h[i]
		i = l
	}
	p.heap = h
	return e
}

// slice does the probe's fixed work once and times it.
func (p *hostProbe) slice() {
	const mask = 1<<20 - 1
	t0 := time.Now()
	for i := 0; i < probeEvents; i++ {
		e := p.pop()
		idx := (uint64(e.id)*2654435761 + e.at*40503) & mask
		v := p.table[idx]
		var d uint64
		switch v & 7 {
		case 0:
			d = 1
		case 1, 2:
			d = 3 + (v>>8)&15
		case 3:
			d = 20
		case 4:
			d = 2
			p.table[(idx*31+7)&mask] += e.at
		default:
			d = 1 + (v>>16)&3
		}
		p.table[idx] = v*6364136223846793005 + 1442695040888963407
		p.push(probeEvent{e.at + d, e.id})
	}
	p.busy += time.Since(t0)
	p.n++
}

// tick is called between the jobs of a pass and runs one slice for every
// probePeriod of work done since the last one.  Traced runs have a nil
// probe, which does nothing.
func (p *hostProbe) tick() {
	if p == nil {
		return
	}
	owed := int(time.Since(p.mark) / probePeriod)
	if owed == 0 {
		return
	}
	for i := 0; i < owed; i++ {
		p.slice()
	}
	p.mark = time.Now()
}

// begin starts a stretch: a pass, or a set-up.
func (p *hostProbe) begin() {
	if p == nil {
		return
	}
	p.busy, p.n, p.mark = 0, 0, time.Now()
}

// end returns the time the stretch spent inside slices, to be taken out
// of it, and how many times slower than probeQuiet they ran.  A stretch
// too short to have earned a slice gets one now.  Without a probe the
// host counts as quiet.
func (p *hostProbe) end() (busy time.Duration, slowdown float64) {
	if p == nil {
		return 0, 1
	}
	if p.n == 0 {
		p.slice()
	}
	return p.busy, p.busy.Seconds() / float64(p.n) / probeQuiet
}
