// AccessBatch is the cost model shared by every loop that performs a run of
// demand loads (the hier/stream bench, the attack probe loops, the noise
// agents, the setup-time warmup walk). It adds no access path of its own:
// each load goes through Access.

package hier

import "streamline/internal/mem"

// BatchClock describes how the local clock advances across the accesses of
// one batch, mirroring the cost conventions of the scalar call sites:
//
//	cost(access) = latency/Div + Extra     (Div <= 1 means the full latency)
//
// With Hold false the next access is issued at the previous access's issue
// time plus its cost (dependent or pipelined loads — the hier/stream and
// attack probe loops). With Hold true every access is issued at the batch
// start time while costs still accumulate (a burst issued at one timestamp
// — the noise agents and setup-time warmup walks).
type BatchClock struct {
	// Div divides each access's latency in the cost term (memory-level
	// parallelism); values <= 1 charge the full latency.
	Div int
	// Extra is a constant per-access cost (loop overhead) added after the
	// scaled latency.
	Extra uint64
	// Hold freezes the issue clock at the batch start time.
	Hold bool
}

// BatchResult aggregates one AccessBatch execution.
type BatchResult struct {
	// Cost is the total clock advance of the batch under the BatchClock
	// cost model.
	Cost uint64
	// LatencySum is the sum of the raw access latencies (the probe loops
	// of the conflict attacks decode on this).
	LatencySum uint64
	// Served counts the batch's accesses per serving level.
	Served [4]uint64
}

// AccessBatch performs len(addrs) demand loads from core through Access,
// starting at time now, and accumulates their costs under clk. It
// allocates nothing.
//
//detlint:hotpath
func (h *Hierarchy) AccessBatch(core int, addrs []mem.Addr, now uint64, clk BatchClock) BatchResult {
	div := uint64(1)
	if clk.Div > 1 {
		div = uint64(clk.Div)
	}
	var res BatchResult
	t := now
	for _, a := range addrs {
		r := h.Access(core, a, t)
		c := uint64(r.Latency)/div + clk.Extra
		res.Cost += c
		res.LatencySum += uint64(r.Latency)
		res.Served[r.Level]++
		if !clk.Hold {
			t += c
		}
	}
	return res
}
