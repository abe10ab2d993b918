package hier

import (
	"testing"

	"streamline/internal/cache"
	"streamline/internal/mem"
	"streamline/internal/params"
	"streamline/internal/rng"
	"streamline/internal/statetest"
	"streamline/internal/tlb"
)

// lifecycleVariants enumerates (machine, options) pairs spanning both access
// paths (fast and general) and every optional component.
func lifecycleVariants() map[string]func(seed uint64) (*params.Machine, Options) {
	return map[string]func(seed uint64) (*params.Machine, Options){
		"skylake-default": func(seed uint64) (*params.Machine, Options) {
			return params.SkylakeE3(), Options{Seed: seed}
		},
		"skylake-nopf": func(seed uint64) (*params.Machine, Options) {
			return params.SkylakeE3(), Options{Seed: seed, DisablePrefetch: true}
		},
		"skylake-tlb": func(seed uint64) (*params.Machine, Options) {
			t := tlb.Skylake4K()
			return params.SkylakeE3(), Options{Seed: seed, TLB: &t}
		},
		"skylake-partition": func(seed uint64) (*params.Machine, Options) {
			return params.SkylakeE3(), Options{Seed: seed, PartitionWays: 2}
		},
		"skylake-randfill": func(seed uint64) (*params.Machine, Options) {
			return params.SkylakeE3(), Options{Seed: seed, RandomFillProb: 0.5}
		},
		"skylake-quota": func(seed uint64) (*params.Machine, Options) {
			return params.SkylakeE3(), Options{Seed: seed,
				Quota: &QuotaConfig{MinWays: 2, RebalancePeriod: 512, CopyOnAccess: true}}
		},
		"skylake-quota-static": func(seed uint64) (*params.Machine, Options) {
			return params.SkylakeE3(), Options{Seed: seed,
				Quota: &QuotaConfig{DomainWays: []int{6, 4, 3, 3}}}
		},
		"arm-default": func(seed uint64) (*params.Machine, Options) {
			return params.ARMCortexA72(), Options{Seed: seed}
		},
	}
}

func mustNew(t *testing.T, mk func(seed uint64) (*params.Machine, Options), seed uint64) *Hierarchy {
	t.Helper()
	m, opt := mk(seed)
	h, err := New(m, opt)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// driveHier applies a pseudo-random mix of demand loads from every core,
// with occasional flushes, over a footprint large enough to thrash the LLC.
func driveHier(h *Hierarchy, x *rng.Xoshiro, n int) {
	cores := len(h.l1)
	now := uint64(0)
	for i := 0; i < n; i++ {
		now += x.Uint64() % 200
		core := int(x.Uint64() % uint64(cores))
		a := mem.Addr(x.Uint64() % (32 << 20))
		if x.Uint64()%16 == 0 {
			h.Flush(core, a)
		} else {
			h.Access(core, a, now)
		}
	}
}

// requireSameHier drives both hierarchies with an identical suffix workload
// and fails on the first diverging access result, then cross-checks the
// served-level counters.
func requireSameHier(t *testing.T, got, want *Hierarchy, seed uint64, n int) {
	t.Helper()
	statetest.Equal(t, "Served", got.Served, want.Served)
	statetest.Equal(t, "ServedPerCore", got.ServedPerCore, want.ServedPerCore)
	statetest.Equal(t, "SkippedFills", got.SkippedFills, want.SkippedFills)
	x := rng.New(seed)
	cores := len(got.l1)
	now := uint64(0)
	for i := 0; i < n; i++ {
		now += x.Uint64() % 200
		core := int(x.Uint64() % uint64(cores))
		a := mem.Addr(x.Uint64() % (32 << 20))
		if x.Uint64()%16 == 0 {
			gl, gc := got.Flush(core, a)
			wl, wc := want.Flush(core, a)
			if gl != wl || gc != wc {
				t.Fatalf("flush divergence at suffix op %d: (%d,%v) != (%d,%v)", i, gl, gc, wl, wc)
			}
		} else {
			g := got.Access(core, a, now)
			w := want.Access(core, a, now)
			if g != w {
				t.Fatalf("access divergence at suffix op %d: %+v != %+v", i, g, w)
			}
		}
	}
	if got.fillRnd == nil {
		// Random-fill configurations violate inclusion by design (the
		// requester keeps a private copy of lines the LLC skipped).
		if line, ok := got.CheckInclusion(); !ok {
			t.Fatalf("inclusion violated for line %#x", uint64(line))
		}
	}
}

func TestHierarchyResetEqualsNew(t *testing.T) {
	for name, mk := range lifecycleVariants() {
		t.Run(name, func(t *testing.T) {
			dirty := mustNew(t, mk, 7)
			driveHier(dirty, rng.New(123), 30000)
			if err := dirty.Reset(99); err != nil {
				t.Fatal(err)
			}
			requireSameHier(t, dirty, mustNew(t, mk, 99), 555, 30000)
		})
	}
}

func TestHierarchyCloneEquivalenceAndIndependence(t *testing.T) {
	for name, mk := range lifecycleVariants() {
		t.Run(name, func(t *testing.T) {
			src := mustNew(t, mk, 7)
			driveHier(src, rng.New(123), 30000)
			c1, err := src.Clone()
			if err != nil {
				t.Fatal(err)
			}
			c2, err := src.Clone()
			if err != nil {
				t.Fatal(err)
			}
			driveHier(c1, rng.New(321), 30000) // perturb one clone
			requireSameHier(t, src, c2, 555, 30000)
		})
	}
}

func TestHierarchyCopyFrom(t *testing.T) {
	for name, mk := range lifecycleVariants() {
		t.Run(name, func(t *testing.T) {
			src := mustNew(t, mk, 7)
			driveHier(src, rng.New(123), 30000)
			dst := mustNew(t, mk, 42)
			driveHier(dst, rng.New(77), 10000)
			dst.CopyFrom(src)
			want, err := src.Clone()
			if err != nil {
				t.Fatal(err)
			}
			requireSameHier(t, dst, want, 555, 30000)
		})
	}
}

func TestHierarchyResetRefusesForeignPolicy(t *testing.T) {
	h, err := New(params.SkylakeE3(), Options{LLCPolicy: cache.NewLRU(), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Reset(2); err == nil {
		t.Fatal("Reset accepted a caller-supplied LLC policy")
	}
}

// TestHierarchyFieldAudit fails when Hierarchy gains a field the lifecycle
// methods in lifecycle.go do not handle.
func TestHierarchyFieldAudit(t *testing.T) {
	statetest.Fields(t, Hierarchy{},
		"mach", "geom", "opt", "l1", "l2", "llcs", "domains", "dram",
		"pf", "tlbs", "fillRnd", "fillP", "quota", "mon", "pfBuf", "fast",
		"dir", "dirWays", "orphans", "Served", "ServedPerCore", "SkippedFills")
	statetest.Fields(t, quotaMgr{},
		"cfg", "domains", "ways", "lookups", "misses", "budget", "initial",
		"scratch", "rems")
	statetest.Fields(t, Monitor{}, "cores", "window", "wins")
	statetest.Fields(t, CounterWindow{}, "PerCore")
	// Checkpoint holds exactly one private cloned hierarchy; a second field
	// would mean state that RestoreInto/Materialize do not carry.
	statetest.Fields(t, Checkpoint{}, "h")
}
