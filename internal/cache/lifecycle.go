// State lifecycle for caches and replacement policies (see DESIGN.md "State
// lifecycle"): Reset reinitializes a component in place to exactly the state
// a fresh construction with the same seed would produce, without allocating;
// Clone produces a deep, independently evolving copy; CopyFrom overwrites a
// same-shape component's state in place (the allocation-free restore
// checkpoint forks use). The field sets these methods cover are pinned
// by the statetest audits in lifecycle_test.go.

package cache

import "fmt"

// Lifecycle is implemented by replacement policies that support in-place
// reinitialization and deep copying. All stock policies implement it; a
// custom ablation policy that does not simply opts its cache out of the
// simulator pool (hier.Reset/Clone report an error).
type Lifecycle interface {
	// Reset reinitializes the policy in place to the state a fresh
	// construction with seed (followed by the same Attach) would produce.
	// Policies without random decisions ignore the seed.
	Reset(seed uint64)
	// Clone returns a deep copy evolving independently of the receiver.
	Clone() Policy
	// CopyStateFrom overwrites the policy's mutable state with src's. It
	// panics if src is a different policy type or shape — callers pair
	// components by config fingerprint, so a mismatch is a programming
	// error.
	CopyStateFrom(src Policy)
}

// lifecycleMismatch panics with a uniform diagnostic for CopyStateFrom
// shape/type violations.
func lifecycleMismatch(dst Policy, src Policy) {
	panic(fmt.Sprintf("cache: CopyStateFrom between mismatched policies %s <- %s", dst.Name(), src.Name()))
}

// ---------------------------------------------------------------- LRU

// Reset implements Lifecycle. LRU has no random decisions; seed is ignored.
func (p *LRU) Reset(uint64) {
	for i := range p.stamp {
		p.stamp[i] = 0
	}
	for i := range p.clock {
		p.clock[i] = 0
	}
}

// Clone implements Lifecycle.
func (p *LRU) Clone() Policy {
	return &LRU{
		ways:  p.ways,
		stamp: append([]uint32(nil), p.stamp...),
		clock: append([]uint32(nil), p.clock...),
	}
}

// CopyStateFrom implements Lifecycle.
func (p *LRU) CopyStateFrom(src Policy) {
	s, ok := src.(*LRU)
	if !ok || p.ways != s.ways || len(p.stamp) != len(s.stamp) {
		lifecycleMismatch(p, src)
	}
	copy(p.stamp, s.stamp)
	copy(p.clock, s.clock)
}

// ---------------------------------------------------------------- Random

// Reset implements Lifecycle.
func (p *Random) Reset(seed uint64) { p.x.Reseed(seed) }

// Clone implements Lifecycle.
func (p *Random) Clone() Policy { return &Random{ways: p.ways, x: p.x.Clone()} }

// CopyStateFrom implements Lifecycle.
func (p *Random) CopyStateFrom(src Policy) {
	s, ok := src.(*Random)
	if !ok || p.ways != s.ways {
		lifecycleMismatch(p, src)
	}
	p.x.CopyStateFrom(s.x)
}

// ---------------------------------------------------------------- NRU

// Reset implements Lifecycle. NRU has no random decisions; seed is ignored.
func (p *NRU) Reset(uint64) {
	for i := range p.ref {
		p.ref[i] = false
	}
	for i := range p.ptr {
		p.ptr[i] = 0
	}
}

// Clone implements Lifecycle.
func (p *NRU) Clone() Policy {
	return &NRU{
		ways: p.ways,
		ref:  append([]bool(nil), p.ref...),
		ptr:  append([]uint16(nil), p.ptr...),
	}
}

// CopyStateFrom implements Lifecycle.
func (p *NRU) CopyStateFrom(src Policy) {
	s, ok := src.(*NRU)
	if !ok || p.ways != s.ways || len(p.ref) != len(s.ref) {
		lifecycleMismatch(p, src)
	}
	copy(p.ref, s.ref)
	copy(p.ptr, s.ptr)
}

// ---------------------------------------------------------------- TreePLRU

// Reset implements Lifecycle: a fresh Attach leaves every tree word zero.
// The per-way mask pairs and the victim lookup table are pure functions of
// the geometry, immutable after Attach, so they are left in place (and
// shared by Clone below).
func (p *TreePLRU) Reset(uint64) {
	for i := range p.bits {
		p.bits[i] = 0
	}
}

// Clone implements Lifecycle. The setM/clrM/vict tables are immutable after
// Attach and safely shared between clones; only the per-set tree words are
// copied.
func (p *TreePLRU) Clone() Policy {
	c := *p
	c.bits = append([]uint32(nil), p.bits...)
	return &c
}

// CopyStateFrom implements Lifecycle.
func (p *TreePLRU) CopyStateFrom(src Policy) {
	s, ok := src.(*TreePLRU)
	if !ok || p.ways != s.ways || len(p.bits) != len(s.bits) {
		lifecycleMismatch(p, src)
	}
	copy(p.bits, s.bits)
}

// ---------------------------------------------------------------- RRIP

// Reset implements Lifecycle: ages return to maxAge (the fresh-Attach
// state), the victim scan pointers and the DRRIP selector rewind, and the
// insertion RNG is reseeded. The configuration knobs (mode, hit behaviour,
// PrefetchDistant, DistantFrac32) are construction-time settings and are
// preserved, matching a fresh NewRRIP with the same post-construction
// adjustments.
func (p *RRIP) Reset(seed uint64) {
	for i := range p.ptr {
		p.ptr[i] = 0
	}
	if p.agePk != nil {
		full := allAges(p.ways, maxAge)
		for i := range p.agePk {
			p.agePk[i] = full
		}
	}
	for i := range p.age {
		p.age[i] = maxAge
	}
	p.x.Reseed(seed)
	p.psel = 0
}

// Clone implements Lifecycle.
func (p *RRIP) Clone() Policy {
	c := *p
	c.x = p.x.Clone()
	if p.agePk != nil {
		c.agePk = append([]uint64(nil), p.agePk...)
	}
	if p.age != nil {
		c.age = append([]uint8(nil), p.age...)
	}
	c.ptr = append([]uint16(nil), p.ptr...)
	return &c
}

// CopyStateFrom implements Lifecycle.
func (p *RRIP) CopyStateFrom(src Policy) {
	s, ok := src.(*RRIP)
	if !ok || p.mode != s.mode || p.ways != s.ways || p.sets != s.sets ||
		p.hitToZero != s.hitToZero || p.PrefetchDistant != s.PrefetchDistant ||
		p.DistantFrac32 != s.DistantFrac32 {
		lifecycleMismatch(p, src)
	}
	copy(p.agePk, s.agePk)
	copy(p.age, s.age)
	copy(p.ptr, s.ptr)
	p.x.CopyStateFrom(s.x)
	p.psel = s.psel
}

// ---------------------------------------------------------------- Cache

// lifecycle returns the attached policy's Lifecycle, or an error naming the
// policy when it does not support the state lifecycle.
func (c *Cache) lifecycle() (Lifecycle, error) {
	lc, ok := c.pol.(Lifecycle)
	if !ok {
		return nil, fmt.Errorf("cache: policy %s does not implement the state lifecycle", c.pol.Name())
	}
	return lc, nil
}

// Reset reinitializes the cache in place to the state a fresh New with the
// same geometry and a freshly seeded policy would produce: every way empty,
// hints and occupancy cleared, statistics zeroed, and the policy reset with
// seed. It allocates nothing. When the attached policy lacks the lifecycle
// it returns an error without touching any state.
func (c *Cache) Reset(seed uint64) error {
	lc, err := c.lifecycle()
	if err != nil {
		return err
	}
	for i := range c.tags {
		c.tags[i] = invalidTag
	}
	for i := range c.mru {
		c.mru[i] = 0
	}
	for i := range c.setOcc {
		c.setOcc[i] = 0
	}
	c.occupied = 0
	if q := c.quota; q != nil {
		for i := range q.owner {
			q.owner[i] = 0
		}
		for i := range q.occ {
			q.occ[i] = 0
		}
		copy(q.budget, q.initial)
	}
	c.Stats = Stats{}
	lc.Reset(seed)
	return nil
}

// Clone returns a deep copy of the cache (tags, hints, occupancy, stats,
// and policy state) that evolves independently of the receiver.
func (c *Cache) Clone() (*Cache, error) {
	lc, err := c.lifecycle()
	if err != nil {
		return nil, err
	}
	n := &Cache{
		sets:     c.sets,
		ways:     c.ways,
		setMask:  c.setMask,
		tags:     append([]uint32(nil), c.tags...),
		mru:      append([]int32(nil), c.mru...),
		setOcc:   append([]uint16(nil), c.setOcc...),
		occupied: c.occupied,
		Stats:    c.Stats,
		pol:      lc.Clone(),
	}
	switch p := n.pol.(type) {
	case *RRIP:
		n.kind, n.rrip = polRRIP, p
	case *TreePLRU:
		n.kind, n.plru = polPLRU, p
	}
	if q := c.quota; q != nil {
		n.quota = &quotaState{
			domains: q.domains,
			owner:   append([]uint8(nil), q.owner...),
			occ:     append([]uint16(nil), q.occ...),
			budget:  append([]uint16(nil), q.budget...),
			initial: append([]uint16(nil), q.initial...),
		}
	}
	return n, nil
}

// CopyFrom overwrites the cache's state with src's, in place and without
// allocating. The two caches must have identical geometry and policy
// type/shape (callers pair them by config fingerprint); a mismatch panics.
func (c *Cache) CopyFrom(src *Cache) {
	if c.sets != src.sets || c.ways != src.ways {
		panic(fmt.Sprintf("cache: CopyFrom between mismatched geometries %dx%d <- %dx%d",
			c.sets, c.ways, src.sets, src.ways))
	}
	lc, err := c.lifecycle()
	if err != nil {
		panic(err)
	}
	if (c.quota == nil) != (src.quota == nil) ||
		(c.quota != nil && c.quota.domains != src.quota.domains) {
		panic("cache: CopyFrom between mismatched quota configurations")
	}
	copy(c.tags, src.tags)
	copy(c.mru, src.mru)
	copy(c.setOcc, src.setOcc)
	c.occupied = src.occupied
	if q := c.quota; q != nil {
		copy(q.owner, src.quota.owner)
		copy(q.occ, src.quota.occ)
		copy(q.budget, src.quota.budget)
		copy(q.initial, src.quota.initial)
	}
	c.Stats = src.Stats
	lc.CopyStateFrom(src.pol)
}
