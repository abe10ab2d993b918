package hier

import (
	"reflect"
	"testing"

	"streamline/internal/mem"
	"streamline/internal/params"
	"streamline/internal/rng"
)

func TestQuotaConfigValidation(t *testing.T) {
	m := params.SkylakeE3()
	bad := []Options{
		{Quota: &QuotaConfig{}, PartitionWays: 4},             // mutually exclusive
		{Quota: &QuotaConfig{DomainWays: []int{8, 8}}},        // 2 entries for 4 domains
		{Quota: &QuotaConfig{MinWays: 5}},                     // 4 domains x 5 ways > 16
		{Quota: &QuotaConfig{DomainWays: []int{17, 1, 1, 1}}}, // budget > ways
	}
	for i, opt := range bad {
		if _, err := New(m, opt); err == nil {
			t.Errorf("case %d: New accepted invalid quota options %+v", i, opt)
		}
	}
	if _, err := New(m, Options{Quota: &QuotaConfig{MinWays: 2, RebalancePeriod: 1024}}); err != nil {
		t.Fatalf("valid quota options rejected: %v", err)
	}
}

func TestQuotaSharesOneLLC(t *testing.T) {
	h, err := New(params.SkylakeE3(), Options{Quota: &QuotaConfig{}})
	if err != nil {
		t.Fatal(err)
	}
	if len(h.llcs) != 1 {
		t.Fatalf("quota hierarchy built %d LLCs, want one shared", len(h.llcs))
	}
	if got := h.LLC().QuotaDomains(); got != 4 {
		t.Fatalf("LLC quota domains = %d, want one per core (4)", got)
	}
	if h.fast {
		t.Fatal("quota hierarchy took the fast path")
	}
}

// TestQuotaCopyOnAccessDeniesCrossDomainHits pins the cacheability-
// management signal deprivation: a line cached by one domain does not give
// another domain an LLC hit, and ownership ping-pongs with each denial.
func TestQuotaCopyOnAccessDeniesCrossDomainHits(t *testing.T) {
	h, err := New(params.SkylakeE3(), Options{Quota: &QuotaConfig{CopyOnAccess: true}, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	a := mem.Addr(4096)
	if lvl := h.Access(0, a, 0).Level; lvl != DRAM {
		t.Fatalf("cold access served at %v, want DRAM", lvl)
	}
	h.InvalidatePrivate(0, a)
	if lvl := h.Access(0, a, 100).Level; lvl != LLC {
		t.Fatalf("own re-access served at %v, want LLC", lvl)
	}
	// Core 1 (another domain) touches the same line: denied despite LLC
	// residency.
	if lvl := h.Access(1, a, 200).Level; lvl != DRAM {
		t.Fatalf("cross-domain access served at %v, want DRAM (denied)", lvl)
	}
	h.InvalidatePrivate(1, a)
	if lvl := h.Access(1, a, 300).Level; lvl != LLC {
		t.Fatalf("new owner re-access served at %v, want LLC", lvl)
	}
	h.InvalidatePrivate(0, a)
	if lvl := h.Access(0, a, 400).Level; lvl != DRAM {
		t.Fatalf("previous owner re-access served at %v, want DRAM (denied back)", lvl)
	}
}

// TestQuotaRebalanceFollowsDemand pins the CacheBar rebalancer: a core
// streaming through the LLC gathers ways while idle domains shrink to the
// floor.
func TestQuotaRebalanceFollowsDemand(t *testing.T) {
	h, err := New(params.SkylakeE3(), Options{
		Quota: &QuotaConfig{MinWays: 1, RebalancePeriod: 1024},
		Seed:  7,
	})
	if err != nil {
		t.Fatal(err)
	}
	start := h.LLC().WayBudget(0)
	now := uint64(0)
	// An 16 MB stream from core 0: misses the 8 MB LLC continuously.
	for pass := 0; pass < 2; pass++ {
		for off := 0; off < 16<<20; off += 64 {
			now += 30
			h.Access(0, mem.Addr(off), now)
		}
	}
	grown := h.LLC().WayBudget(0)
	if grown <= start {
		t.Fatalf("streaming domain budget %d did not grow from %d", grown, start)
	}
	for d := 1; d < 4; d++ {
		if b := h.LLC().WayBudget(d); b != 1 {
			t.Fatalf("idle domain %d budget = %d, want the floor 1", d, b)
		}
	}
}

// TestQuotaBoundsVictimDomain pins the isolation property Prime+Probe
// cares about: a domain at its budget cannot evict another domain's lines.
func TestQuotaBoundsVictimDomain(t *testing.T) {
	h, err := New(params.SkylakeE3(), Options{Quota: &QuotaConfig{}, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	geom := h.Geometry()
	llc := h.LLC()
	// Core 1 faults in four lines of one LLC set (its even-split budget).
	target := llc.SetOf(geom.LineOf(0))
	var primed []mem.Addr
	for i := 0; primed == nil || len(primed) < 4; i++ {
		a := mem.Addr(uint64(i) * uint64(geom.LineBytes))
		if llc.SetOf(geom.LineOf(a)) == target {
			primed = append(primed, a)
		}
	}
	now := uint64(0)
	for _, a := range primed {
		now += 50
		h.Access(1, a, now)
	}
	// Core 0 streams far more same-set lines than its own budget.
	streamed := 0
	for i := 1; streamed < 64; i++ {
		a := mem.Addr(uint64(i)*uint64(geom.LineBytes)*uint64(llc.Sets()) + uint64(target)*uint64(geom.LineBytes))
		if llc.SetOf(geom.LineOf(a)) != target {
			t.Fatalf("constructed address %#x maps to set %d, want %d", uint64(a), llc.SetOf(geom.LineOf(a)), target)
		}
		now += 50
		h.Access(0, a, now)
		streamed++
	}
	for _, a := range primed {
		if !llc.Probe(geom.LineOf(a)) {
			t.Fatalf("core 1's primed line %#x evicted by core 0's over-budget stream", uint64(a))
		}
	}
}

// TestMonitorBatchMatchesScalar pins the monitor hook placement under
// AccessBatch: identical traffic sent through Access and AccessBatch
// produces byte-identical counter windows.
func TestMonitorBatchMatchesScalar(t *testing.T) {
	build := func() *Hierarchy {
		h, err := New(params.SkylakeE3(), Options{Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	scalar, batched := build(), build()
	scalar.AttachMonitor(NewMonitor(4, 500))
	batched.AttachMonitor(NewMonitor(4, 500))

	x := rng.New(42)
	addrs := make([]mem.Addr, 4096)
	for i := range addrs {
		addrs[i] = mem.Addr(x.Uint64() % (4 << 20))
	}
	clk := BatchClock{Div: 4, Extra: 2}
	t0 := uint64(1000)
	// The scalar expansion documented on AccessBatch.
	tt := t0
	for _, a := range addrs {
		r := scalar.Access(1, a, tt)
		tt += uint64(r.Latency)/4 + clk.Extra
	}
	batched.AccessBatch(1, addrs, t0, clk)

	sm, bm := scalar.DetachMonitor(), batched.DetachMonitor()
	if !reflect.DeepEqual(sm.Windows(), bm.Windows()) {
		t.Fatalf("batch and scalar counter windows diverge:\nscalar:  %v windows\nbatched: %v windows", len(sm.Windows()), len(bm.Windows()))
	}
	if len(sm.Windows()) == 0 {
		t.Fatal("no counter windows observed")
	}
}

// TestMonitorDoesNotPerturbHierarchy drives a monitored and an unmonitored
// hierarchy identically and requires identical simulation results.
func TestMonitorDoesNotPerturbHierarchy(t *testing.T) {
	for name, mk := range lifecycleVariants() {
		t.Run(name, func(t *testing.T) {
			plain := mustNew(t, mk, 7)
			watched := mustNew(t, mk, 7)
			watched.AttachMonitor(NewMonitor(len(watched.l1), 10_000))
			requireSameHier(t, watched, plain, 555, 30000)
			if watched.DetachMonitor() == nil {
				t.Fatal("monitor lost during the run")
			}
		})
	}
}
