package mem

// DRAM models main memory: a fixed unloaded latency (150 cycles in
// Table 1) plus channel contention — each channel accepts one request per
// burst interval.
type DRAM struct {
	Latency  uint64
	Channels []Port
	Interval uint64 // cycles between requests per channel

	Stats struct {
		Requests    uint64
		StallCycles uint64
	}
}

// NewDRAM returns a DRAM model with the given unloaded latency.
func NewDRAM(latency uint64, channels int, interval uint64) *DRAM {
	if channels < 1 {
		channels = 1
	}
	return &DRAM{Latency: latency, Channels: make([]Port, channels), Interval: interval}
}

// Access books a request issued at cycle now and returns its completion
// cycle.  Requests are spread across channels by address.
func (d *DRAM) Access(addr uint64, now uint64) uint64 {
	d.Stats.Requests++
	ch := &d.Channels[(addr>>6)%uint64(len(d.Channels))]
	start := ch.Reserve(now, d.Interval)
	d.Stats.StallCycles += start - now
	return start + d.Latency
}
