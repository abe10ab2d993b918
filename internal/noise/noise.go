// Package noise provides co-running background workloads that stress the
// cache hierarchy, mirroring the stress-ng "--class cpu-cache" kernels the
// paper uses to evaluate noise resilience (Section 4.7, Figure 10).
//
// Each workload is a sched.Agent pinned to its own core with a private
// buffer. Workloads differ in footprint (how much of the LLC they churn),
// access shape (sequential, random, pointer-chase, strided, flush-storm),
// and intensity (compute cycles between memory bursts) — the dimensions
// that determine how many sender-installed lines they dislodge.
package noise

import (
	"fmt"

	"streamline/internal/hier"
	"streamline/internal/mem"
	"streamline/internal/rng"
)

// Shape is the access pattern of a noise kernel.
type Shape int

// Access shapes.
const (
	// Seq walks the buffer sequentially (streaming).
	Seq Shape = iota
	// Rand touches uniformly random lines.
	Rand
	// Chase follows a dependent pseudo-random pointer chain
	// (fully serialized loads).
	Chase
	// Strided walks with a large fixed stride (row/column walks).
	Strided
	// FlushStorm loads then flushes random lines (clflush-heavy kernels).
	FlushStorm
)

// Config describes one noise workload.
type Config struct {
	Name      string
	Shape     Shape
	Footprint int // buffer size in bytes
	// ComputeGap is extra cycles of pure compute per access (low
	// intensity kernels have large gaps).
	ComputeGap int
	// Stride in bytes for the Strided shape.
	Stride int
	// Parallel is the number of overlapped accesses per step (memory-
	// level parallelism); 0 and 1 both mean serial. Bandwidth-bound
	// kernels (stream, memcpy) keep several misses in flight.
	Parallel int
}

// Workload is a background cache-stressing agent.
type Workload struct {
	cfg  Config
	h    *hier.Hierarchy
	core int
	reg  mem.Region
	x    *rng.Xoshiro
	pos  int
	buf  []mem.Addr // reused batch address buffer

	// Accesses counts the demand loads issued so far.
	Accesses uint64
}

// New allocates the workload's buffer from alloc and returns the agent.
func New(cfg Config, h *hier.Hierarchy, core int, alloc *mem.Allocator, seed uint64) *Workload {
	if cfg.Footprint <= 0 {
		panic(fmt.Sprintf("noise: invalid config %+v", cfg))
	}
	return &Workload{
		cfg:  cfg,
		h:    h,
		core: core,
		reg:  alloc.Alloc(cfg.Footprint),
		x:    rng.New(seed),
	}
}

// Name implements sched.Agent.
func (w *Workload) Name() string { return "noise:" + w.cfg.Name }

// Step implements sched.Agent: one batch of Parallel overlapped accesses
// (plus the kernel's compute gap). All accesses of a batch are issued at
// the step's own timestamp — never ahead of it — which keeps the DRAM
// queue model consistent across agents. Noise agents never finish; the
// scheduler stops them when the required agents are done.
func (w *Workload) Step(now uint64) (uint64, bool) {
	lineBytes := w.h.Geometry().LineBytes
	lines := w.reg.Size / lineBytes
	batch := w.cfg.Parallel
	if batch < 1 {
		batch = 1
	}
	if w.cfg.Shape == FlushStorm {
		// Flushes interleave with the loads, so the storm keeps the scalar
		// per-access path.
		var cost uint64
		for b := 0; b < batch; b++ {
			a := w.reg.AddrAt(w.x.Intn(lines) * lineBytes)
			r := w.h.Access(w.core, a, now)
			w.Accesses++
			flushLat, _ := w.h.Flush(w.core, a)
			cost += uint64(r.Latency) + uint64(flushLat) + uint64(w.cfg.ComputeGap)
		}
		return cost, false
	}
	// Every other shape generates its batch of addresses up front and runs
	// them through AccessBatch in one call, all at the step's own
	// timestamp (BatchClock.Hold).
	if cap(w.buf) < batch {
		w.buf = make([]mem.Addr, batch)
	}
	buf := w.buf[:batch]
	for b := range buf {
		var off int
		switch w.cfg.Shape {
		case Seq:
			off = w.pos * lineBytes
			w.pos = (w.pos + 1) % lines
		case Rand, Chase:
			off = w.x.Intn(lines) * lineBytes
		case Strided:
			off = w.pos * lineBytes
			w.pos = (w.pos + w.cfg.Stride/lineBytes) % lines
		}
		buf[b] = w.reg.AddrAt(off)
	}
	clk := hier.BatchClock{Hold: true, Extra: uint64(w.cfg.ComputeGap)}
	if w.cfg.Shape != Chase {
		// Independent loads overlap: a fraction of the latency is exposed
		// on average at the machine's MLP, plus fixed loop overhead. Chase
		// is dependent loads, whose full latency serializes (Div <= 1).
		clk.Div = w.h.Machine().MLP
		clk.Extra += 4
	}
	res := w.h.AccessBatch(w.core, buf, now, clk)
	w.Accesses += uint64(batch)
	return res.Cost, false
}

// StressNG returns the catalogue of stress-ng-flavoured kernels used by the
// Figure 10 experiment, sized relative to the machine's LLC.
func StressNG(llcBytes int) []Config {
	return []Config{
		{Name: "bsearch", Shape: Rand, Footprint: llcBytes / 2, ComputeGap: 40},
		{Name: "cache", Shape: Rand, Footprint: llcBytes * 2, ComputeGap: 0, Parallel: 4},
		{Name: "heapsort", Shape: Rand, Footprint: llcBytes / 4, ComputeGap: 60},
		{Name: "icache", Shape: Seq, Footprint: 64 << 10, ComputeGap: 20},
		{Name: "matrix", Shape: Strided, Footprint: llcBytes, ComputeGap: 10, Stride: 4096},
		{Name: "memcpy", Shape: Seq, Footprint: llcBytes * 2, ComputeGap: 0, Parallel: 4},
		{Name: "qsort", Shape: Rand, Footprint: llcBytes / 2, ComputeGap: 30},
		{Name: "stream", Shape: Seq, Footprint: llcBytes * 4, ComputeGap: 0, Parallel: 4},
		{Name: "str", Shape: Seq, Footprint: 1 << 20, ComputeGap: 10},
		{Name: "vm", Shape: Chase, Footprint: llcBytes * 2, ComputeGap: 0},
	}
}

// Browser returns a light browsing-like mix (the Chromium/YouTube test of
// Section 4.7): moderate footprint, bursty, with long compute gaps.
func Browser(llcBytes int) Config {
	return Config{Name: "browser", Shape: Rand, Footprint: llcBytes, ComputeGap: 400}
}

// ByName returns the stress-ng config with the given name.
func ByName(llcBytes int, name string) (Config, bool) {
	for _, c := range StressNG(llcBytes) {
		if c.Name == name {
			return c, true
		}
	}
	if name == "browser" {
		return Browser(llcBytes), true
	}
	return Config{}, false
}
