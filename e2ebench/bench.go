package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"

	"streamline/internal/core"
	"streamline/internal/experiments"
	"streamline/internal/resultstore"
)

var workloadNames = []string{"cold-quick", "warm-quick", "daemon-warm"}

// goldenSeed is the seed the committed goldens were generated at.
const goldenSeed = 42

// maxPhaseFactor caps a timed phase at this multiple of --seconds when it
// is still short of --min-samples.
const maxPhaseFactor = 3

// workload is one way of waiting for the tables. setup brings the system
// to the state the timed phase starts from and returns how long that took;
// phase runs one timed phase (traced when tr is non-nil).
type workload interface {
	setup(b *bench) (setupS float64, err error)
	phase(b *bench, tr *tracer) (*phaseResult, error)
	close()
}

// bench is one benchmark run: configuration, scratch space, and the
// correctness tally every workload reports into.
type bench struct {
	cfg    config
	dir    string
	golden map[string][]byte // nil unless the run can be checked against the goldens
	opts   experiments.Opts

	attempted, failed int
}

// check counts one operation and whether it succeeded.
func (b *bench) check(ok bool, format string, args ...any) {
	b.attempted++
	if !ok {
		b.failed++
		fmt.Fprintf(os.Stderr, "e2ebench: FAIL "+format+"\n", args...)
	}
}

// checkStore counts a store whose reads quarantined an entry as a failed
// operation: a corrupt entry means a served byte could have been wrong.
func (b *bench) checkStore(st *resultstore.Store) {
	q := st.Stats().Quarantined
	b.check(q == 0, "store %s quarantined %d entries", st.Dir(), q)
}

// newDir makes a fresh, empty store directory under the run's scratch dir.
func (b *bench) newDir(prefix string) (string, error) {
	return os.MkdirTemp(b.dir, prefix+"-")
}

// phaseResult is everything one timed phase measured.
type phaseResult struct {
	wall   time.Duration
	cpu    time.Duration
	heapMB float64
	units  float64              // passes of every id completed (daemon: jobs ÷ ids)
	passS  []float64            // seconds per pass (daemon: one value, the phase mean per len(ids) jobs)
	lat    []float64            // milliseconds per table
	byExp  map[string][]float64 // the same latencies by experiment id
	sent   []sentReq            // daemon-warm: the requests the clients sent
	tables int

	gcCycles, allocBytes uint64
	run                  core.RunCounters
	chain                core.ChainCounters
	store                resultstore.Stats // counters summed over handles, footprint of the last
	coalesced            uint64

	tr     *tracer
	cpuBkt map[string]float64 // traced phases only: profile seconds per bucket
}

// addLatency records one table's latency in milliseconds.
func (ph *phaseResult) addLatency(id string, ms float64) {
	if ph.byExp == nil {
		ph.byExp = make(map[string][]float64)
	}
	ph.lat = append(ph.lat, ms)
	ph.byExp[id] = append(ph.byExp[id], ms)
}

// p50 is the median over experiments of each experiment's median table
// latency, so every table weighs the same whatever the request mix. The
// experiments' latencies form two clusters of 11 (warm: 0.2-2 ms and
// 6-20 ms); a pooled median lands in the gap between them and jumps from
// run to run, while this one is the midpoint of two fixed experiments.
func (ph *phaseResult) p50() float64 {
	var meds []float64
	for _, id := range ph.expIDs() {
		meds = append(meds, midMedian(ph.byExp[id]))
	}
	return midMedian(meds)
}

// expIDs returns the experiments with latencies, sorted.
func (ph *phaseResult) expIDs() []string {
	ids := make([]string, 0, len(ph.byExp))
	for id := range ph.byExp {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// measure runs body as one timed phase: it collects the process CPU time,
// heap peak and public counters around it, and a CPU profile when traced.
func measure(tr *tracer, body func(ph *phaseResult) error) (*phaseResult, error) {
	runtime.GC()
	ph := &phaseResult{tr: tr}
	rc0, cc0 := core.ReadRunCounters(), core.ReadChainCounters()
	gc0, al0 := runtimeCounters()
	var prof bytes.Buffer
	if tr != nil {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
	}
	hs := startHeapSampler()
	cpu0, t0 := cpuTime(), now()
	err := body(ph)
	ph.wall, ph.cpu = now().Sub(t0), cpuTime()-cpu0
	ph.heapMB = hs.finish()
	if tr != nil {
		pprof.StopCPUProfile()
	}
	if err != nil {
		return nil, err
	}
	gc1, al1 := runtimeCounters()
	ph.gcCycles, ph.allocBytes = gc1-gc0, al1-al0
	rc1, cc1 := core.ReadRunCounters(), core.ReadChainCounters()
	ph.run = core.RunCounters{Sims: rc1.Sims - rc0.Sims, StoreHits: rc1.StoreHits - rc0.StoreHits, StoreMisses: rc1.StoreMisses - rc0.StoreMisses}
	ph.chain = core.ChainCounters{Nodes: cc1.Nodes - cc0.Nodes, Forks: cc1.Forks - cc0.Forks, MemoHits: cc1.MemoHits - cc0.MemoHits}
	if tr != nil {
		p, err := parseProfile(prof.Bytes())
		if err != nil {
			return nil, err
		}
		if ph.cpuBkt, err = cpuByBucket(p); err != nil {
			return nil, err
		}
	}
	return ph, nil
}

// addStats accumulates the counter difference a→z into acc and takes z's
// footprint.
func addStats(acc *resultstore.Stats, a, z resultstore.Stats) {
	acc.Hits += z.Hits - a.Hits
	acc.Misses += z.Misses - a.Misses
	acc.Writes += z.Writes - a.Writes
	acc.Evictions += z.Evictions - a.Evictions
	acc.Quarantined += z.Quarantined - a.Quarantined
	acc.MemHits += z.MemHits - a.MemHits
	acc.MemMisses += z.MemMisses - a.MemMisses
	acc.MemEvictions += z.MemEvictions - a.MemEvictions
	acc.Entries, acc.Bytes, acc.MemEntries, acc.MemBytes = z.Entries, z.Bytes, z.MemEntries, z.MemBytes
}

// pass runs every id once through experiments.Run on the active store,
// timing each call, and returns the formatted tables. want, when non-nil,
// holds the bytes each table must match.
func (b *bench) pass(tr *tracer, idx int, ph *phaseResult, want map[string][]byte, what string) map[string][]byte {
	got := make(map[string][]byte, len(b.cfg.ids))
	for _, id := range b.cfg.ids {
		end := tr.begin("exp."+id, "pass", idx)
		t0 := now()
		tab, err := experiments.Run(id, b.opts)
		d := now().Sub(t0)
		end()
		ph.addLatency(id, ms(d))
		if err != nil {
			b.check(false, "%s %s: %v", what, id, err)
			continue
		}
		ph.tables++
		var buf bytes.Buffer
		tab.Format(&buf)
		got[id] = buf.Bytes()
		ok := true
		if want != nil {
			ok = bytes.Equal(want[id], got[id])
		}
		b.check(ok, "%s %s: table differs from the reference\n--- got ---\n%s--- want ---\n%s", what, id, got[id], want[id])
	}
	return got
}

// checkGolden compares tables produced at the golden seed with the
// committed goldens.
func (b *bench) checkGolden(tables map[string][]byte, what string) {
	if b.golden == nil {
		return
	}
	for _, id := range b.cfg.ids {
		b.check(bytes.Equal(tables[id], b.golden[id]), "%s %s: table differs from %s.golden\n--- got ---\n%s--- want ---\n%s", what, id, id, tables[id], b.golden[id])
	}
}

// loadGoldens reads the committed goldens when the run's seed is the
// golden seed.
func loadGoldens(cfg config) (map[string][]byte, error) {
	if cfg.seed != goldenSeed {
		return nil, nil
	}
	g := make(map[string][]byte, len(cfg.ids))
	for _, id := range cfg.ids {
		data, err := os.ReadFile(filepath.Join(cfg.goldenDir, id+".golden"))
		if err != nil {
			return nil, fmt.Errorf("golden table: %w", err)
		}
		g[id] = data
	}
	return g, nil
}

// newBench prepares a run: the goldens it checks against (at the golden
// seed) and a fresh scratch directory. cleanup removes the directory.
func newBench(cfg config) (*bench, error) {
	golden, err := loadGoldens(cfg)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.workDir, cfg.workload+"-")
	if err != nil {
		return nil, err
	}
	return &bench{
		cfg:    cfg,
		dir:    dir,
		golden: golden,
		opts:   experiments.Opts{Seed: cfg.seed, Quick: true, Workers: workers},
	}, nil
}

func (b *bench) cleanup() {
	core.SetStore(nil)
	os.RemoveAll(b.dir)
}

// runBench runs one workload: set-up, then either one untraced phase
// (end-to-end metrics) or a traced phase with untraced ones around it
// (per-layer metrics and the tracing overhead). Human-readable lines go to
// out.
func runBench(cfg config, out io.Writer) (*result, error) {
	b, err := newBench(cfg)
	if err != nil {
		return nil, err
	}
	defer b.cleanup()

	var w workload
	switch cfg.workload {
	case "cold-quick":
		w = &coldWorkload{}
	case "warm-quick":
		w = &warmWorkload{}
	case "daemon-warm":
		w = &daemonWorkload{}
	}
	defer w.close()

	fmt.Fprintf(out, "e2ebench workload=%s seed=%d seconds=%g trace=%t ids=%d workers=%d\n",
		cfg.workload, cfg.seed, cfg.seconds, cfg.trace, len(cfg.ids), workers)
	setupS, err := w.setup(b)
	if err != nil {
		return nil, fmt.Errorf("%s setup: %w", cfg.workload, err)
	}
	var metrics map[string]metric
	if !cfg.trace {
		plain, err := w.phase(b, nil)
		if err != nil {
			return nil, fmt.Errorf("%s phase: %w", cfg.workload, err)
		}
		metrics = e2eMetrics(setupS, plain)
		printMetrics(out, metrics, e2eNotes(plain))
	} else {
		plain, traced, err := tracedPhases(b, w)
		if err != nil {
			return nil, fmt.Errorf("%s traced run: %w", cfg.workload, err)
		}
		metrics = layerMetrics(plain, traced)
		printMetrics(out, metrics, nil)
		printResiduals(out, plain, traced, metrics)
	}
	fmt.Fprintf(out, "error_rate = %g (failed %d / attempted %d)\n", errorRate(b), b.failed, b.attempted)
	return &result{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: metrics}, nil
}

// tracedPhases runs the traced phase and the untraced phases the tracing
// overhead is measured against. cold-quick traces its first pass, so the
// attribution describes a cold process, and compares it with an untraced
// pass after it. The warm workloads bracket the traced phase with two
// untraced ones and pool their samples, so the order of the phases does
// not bias the overhead.
func tracedPhases(b *bench, w workload) (plain, traced *phaseResult, err error) {
	_, cold := w.(*coldWorkload)
	if !cold {
		if plain, err = w.phase(b, nil); err != nil {
			return nil, nil, err
		}
	}
	if traced, err = w.phase(b, &tracer{}); err != nil {
		return nil, nil, err
	}
	after, err := w.phase(b, nil)
	if err != nil {
		return nil, nil, err
	}
	if plain == nil {
		return after, traced, nil
	}
	plain.passS = append(plain.passS, after.passS...)
	for _, id := range after.expIDs() {
		for _, ms := range after.byExp[id] {
			plain.addLatency(id, ms)
		}
	}
	return plain, traced, nil
}

func errorRate(b *bench) float64 {
	if b.attempted == 0 {
		return 0
	}
	return float64(b.failed) / float64(b.attempted)
}
