// Simulator reuse (see DESIGN.md "State lifecycle"). Building a Hierarchy
// allocates megabytes of tag/metadata arrays; repeated runs — sweeps, the
// bench harness, the experiment tables — used to pay that on every
// repetition. Run now leases its simulator from a process-wide pool keyed
// by configuration fingerprint and resets it in place instead of
// rebuilding, which is bit-for-bit identical to a fresh build (the golden
// conformance suite and TestReuseEquivalence pin this). Every run walks its
// own warmup. Configurations the lifecycle cannot reproduce — a
// caller-supplied LLC policy, random-fill defenses — bypass the pool
// entirely and behave exactly as before.

package core

import (
	"math"
	"sync"
	"sync/atomic"

	"streamline/internal/hier"
	"streamline/internal/params"
	"streamline/internal/runner"
)

// reuseDisabled is the global reuse switch, inverted so the zero value means
// enabled. The toggle exists for A/B verification (tests, detlint runs) and
// as an escape hatch; it is not part of Config because reuse is a pure
// optimization with no observable effect on results.
var reuseDisabled atomic.Bool

// SetReuse enables or disables simulator pooling process-wide and returns
// the previous setting. Pooling is enabled by default; results are
// identical either way.
func SetReuse(on bool) bool {
	return !reuseDisabled.Swap(!on)
}

// checkpointsDisabled is the mid-run checkpoint-tree switch, inverted so
// the zero value means enabled (mirrors reuseDisabled). The golden suite's
// checkpoint-off axis verifies results are identical either way.
var checkpointsDisabled atomic.Bool

// SetCheckpoints enables or disables the mid-run checkpoint tree and result
// memo (Config.Chain) process-wide and returns the previous setting.
// Checkpoints are enabled by default; results are identical either way.
func SetCheckpoints(on bool) bool {
	return !checkpointsDisabled.Swap(!on)
}

// DropCheckpoints empties the checkpoint tree and the chain result memo,
// releasing the hierarchy clones and decoded payloads they retain (up to
// ~200 MB after a large chained sweep). Long-lived processes call it between
// unrelated sweeps; benchmarks call it to make every iteration equally cold.
func DropCheckpoints() {
	chainReuse.mu.Lock()
	defer chainReuse.mu.Unlock()
	chainReuse.nodes = make(map[chainNodeKey]*chainCheckpoint)
	chainReuse.memo = make(map[uint64]*Result)
	chainReuse.memoBytes = 0
}

// maxChainNodes bounds the checkpoint tree: each node retains a hierarchy
// clone plus agent cursors (a few MB; the receiver's decoded prefix
// dominates deep nodes). A ladder contributes one node per length short of
// its longest, per rep, so the default experiments stay well under this.
const maxChainNodes = 24

// maxMemoBytes bounds the chain result memo (estimated retained bytes; the
// decoded payload dominates).
const maxMemoBytes = 192 << 20

type chainNodeKey struct {
	chain    uint64
	boundary int64
}

// chainCounters tracks process-wide checkpoint-tree activity for display
// (cmd/sweep) and tests; it never influences simulation.
var chainCounters struct {
	nodes, forks, memoHits atomic.Uint64
}

// ChainCounters is a monotonic snapshot of checkpoint-tree activity.
type ChainCounters struct {
	// Nodes is the number of checkpoints published, Forks the number of
	// runs resumed from one, MemoHits the number of runs served entirely
	// from the result memo.
	Nodes, Forks, MemoHits uint64
}

// ReadChainCounters returns the current process-wide chain activity.
func ReadChainCounters() ChainCounters {
	return ChainCounters{
		Nodes:    chainCounters.nodes.Load(),
		Forks:    chainCounters.forks.Load(),
		MemoHits: chainCounters.memoHits.Load(),
	}
}

var chainReuse = struct {
	mu        sync.Mutex
	nodes     map[chainNodeKey]*chainCheckpoint
	memo      map[uint64]*Result
	memoBytes int
}{
	nodes: make(map[chainNodeKey]*chainCheckpoint),
	memo:  make(map[uint64]*Result),
}

// chainNodeExists reports whether a checkpoint is already published at
// (chain, boundary).
func chainNodeExists(chain uint64, boundary int64) bool {
	chainReuse.mu.Lock()
	defer chainReuse.mu.Unlock()
	_, ok := chainReuse.nodes[chainNodeKey{chain, boundary}]
	return ok
}

// claimChainNode reports whether the tree has room for another node. The
// capture happens outside the lock (it clones megabytes), so concurrent
// publishers may briefly overshoot by a node each — storeChainNode
// re-checks before inserting.
func claimChainNode() bool {
	chainReuse.mu.Lock()
	defer chainReuse.mu.Unlock()
	return len(chainReuse.nodes) < maxChainNodes
}

// lookupChainNode returns the deepest published node of the chain at or
// below maxBoundary, or nil. Linear scan: the tree holds at most
// maxChainNodes entries.
func lookupChainNode(chain uint64, maxBoundary int64) *chainCheckpoint {
	chainReuse.mu.Lock()
	defer chainReuse.mu.Unlock()
	var best *chainCheckpoint
	for k, n := range chainReuse.nodes {
		if k.chain != chain || k.boundary > maxBoundary {
			continue
		}
		if best == nil || k.boundary > best.boundary {
			best = n
		}
	}
	return best
}

// storeChainNode publishes a node; duplicates and overflow are dropped
// (publication is purely an optimization for later runs).
func storeChainNode(chain uint64, node *chainCheckpoint) {
	chainReuse.mu.Lock()
	defer chainReuse.mu.Unlock()
	k := chainNodeKey{chain, node.boundary}
	if _, ok := chainReuse.nodes[k]; ok || len(chainReuse.nodes) >= maxChainNodes {
		return
	}
	chainReuse.nodes[k] = node
	chainCounters.nodes.Add(1)
}

// memoLookup serves a deep copy of a previously computed chain Result, or
// nil. The key folds the chain fingerprint, the payload length, and the
// payload content hash, so a hit is only possible for a bit-identical run.
func memoLookup(key uint64) *Result {
	chainReuse.mu.Lock()
	r := chainReuse.memo[key]
	chainReuse.mu.Unlock()
	if r == nil {
		return nil
	}
	chainCounters.memoHits.Add(1)
	return cloneResult(r)
}

// memoStore parks a deep copy of a completed chain Result under key,
// subject to the byte budget.
func memoStore(key uint64, r *Result) {
	chainReuse.mu.Lock()
	defer chainReuse.mu.Unlock()
	if _, ok := chainReuse.memo[key]; ok {
		return
	}
	n := resultBytes(r)
	if chainReuse.memoBytes+n > maxMemoBytes {
		return
	}
	chainReuse.memoBytes += n
	chainReuse.memo[key] = cloneResult(r)
}

// simPool holds idle hierarchies by run fingerprint, at most a worker's
// worth per configuration.
var simPool = runner.NewPool[*hier.Hierarchy](8)

// simLease is one Run's checkout from the reuse machinery.
type simLease struct {
	h        *hier.Hierarchy
	key      uint64 // pool key (run fingerprint)
	poolable bool   // return h to the pool when the run finishes
	warmed   bool   // h already carries the post-warmup state
}

func fnvBool(h uint64, b bool) uint64 {
	if b {
		return params.FNVUint(h, 1)
	}
	return params.FNVUint(h, 0)
}

// runFingerprint hashes everything that determines a hierarchy's shape and
// behaviour except the seed: two runs with equal fingerprints can share
// pooled simulator state (Reset supplies the seed). The statetest audits on
// Machine plus the explicit option folds below keep it exhaustive.
func runFingerprint(cfg *Config, hopt *hier.Options) uint64 {
	h := params.FNVUint(params.FNVOffset, cfg.Machine.Fingerprint())
	h = params.FNVUint(h, uint64(hopt.PartitionWays))
	h = params.FNVUint(h, uint64(len(hopt.CoreDomains)))
	for _, d := range hopt.CoreDomains {
		h = params.FNVUint(h, uint64(d))
	}
	h = fnvBool(h, hopt.DisablePrefetch)
	h = params.FNVUint(h, math.Float64bits(hopt.RandomFillProb))
	h = fnvBool(h, hopt.TLB != nil)
	if t := hopt.TLB; t != nil {
		h = params.FNVUint(h, uint64(t.PageBytes))
		h = params.FNVUint(h, uint64(t.L1Entries))
		h = params.FNVUint(h, uint64(t.L1Ways))
		h = params.FNVUint(h, uint64(t.L2Entries))
		h = params.FNVUint(h, uint64(t.L2Ways))
		h = params.FNVUint(h, uint64(t.L2HitPenalty))
		h = params.FNVUint(h, uint64(t.WalkPenalty))
	}
	h = fnvBool(h, hopt.DRAM != nil)
	if d := hopt.DRAM; d != nil {
		h = params.FNVUint(h, uint64(d.Banks))
		h = params.FNVUint(h, uint64(d.RowBytes))
		h = params.FNVUint(h, uint64(d.RowHit))
		h = params.FNVUint(h, uint64(d.RowMiss))
		h = params.FNVUint(h, uint64(d.RowConflict))
		h = params.FNVUint(h, uint64(d.JitterSD))
		h = params.FNVUint(h, uint64(d.BankBusy))
		h = params.FNVUint(h, uint64(d.ChannelBusy))
		h = params.FNVUint(h, uint64(d.RowCloseCycles))
		h = params.FNVUint(h, math.Float64bits(d.FastTailProb))
		h = params.FNVUint(h, uint64(d.FastTailLat))
		h = params.FNVUint(h, uint64(d.MinLatency))
	}
	return h
}

// acquireSim leases a hierarchy for one Run: from the idle pool when one of
// the right shape is free (reset in place), or freshly built.
// Configurations outside the lifecycle get a plain hier.New and are never
// pooled.
func acquireSim(cfg *Config, hopt hier.Options) (*simLease, error) {
	poolable := !reuseDisabled.Load() && cfg.LLCPolicy == nil && cfg.RandomFillProb == 0 &&
		cfg.Quota == nil
	if !poolable {
		h, err := hier.New(cfg.Machine, hopt)
		if err != nil {
			return nil, err
		}
		return &simLease{h: h}, nil
	}
	key := runFingerprint(cfg, &hopt)
	if pooled, ok := simPool.Get(key); ok {
		if err := pooled.Reset(cfg.Seed); err == nil {
			return &simLease{h: pooled, key: key, poolable: true}, nil
		}
	}
	h, err := hier.New(cfg.Machine, hopt)
	if err != nil {
		return nil, err
	}
	return &simLease{h: h, key: key, poolable: true}, nil
}

// leaseForFork materializes a hierarchy carrying a mid-run checkpoint's
// state: into a pooled same-shape hierarchy when one is idle (and pooling
// is on), else as a fresh clone. Returns nil on failure, in which case the
// caller falls back to a cold start.
func leaseForFork(cfg *Config, hopt *hier.Options, node *chainCheckpoint) *simLease {
	key := runFingerprint(cfg, hopt)
	if !reuseDisabled.Load() {
		if pooled, ok := simPool.Get(key); ok {
			// Same run fingerprint (the chain fingerprint embeds it) means
			// the same shape, so the in-place restore cannot panic.
			node.ckpt.RestoreInto(pooled)
			return &simLease{h: pooled, key: key, poolable: true, warmed: true}
		}
	}
	h, err := node.ckpt.Materialize()
	if err != nil {
		return nil
	}
	return &simLease{h: h, key: key, poolable: !reuseDisabled.Load(), warmed: true}
}

// releaseSim returns the lease's hierarchy to the idle pool. The state goes
// back dirty: every checkout path resets or overwrites it before use.
func releaseSim(lease *simLease) {
	if lease.poolable {
		simPool.Put(lease.key, lease.h)
	}
}
