package main

import (
	"encoding/json"
	"io"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"streamline/internal/experiments"
)

// tinyIDs are cheap experiments (tens to hundreds of milliseconds cold at
// quick scale) that still cover a plain run, an Out-level cached run and a
// run the store cannot key.
var tinyIDs = []string{"ablation-trailing", "smt", "table1"}

func tinyConfig(t *testing.T, workload string, trace bool, clients int) config {
	t.Helper()
	return config{
		workload:   workload,
		seed:       goldenSeed,
		seconds:    0.2,
		trace:      trace,
		ids:        tinyIDs,
		minSamples: 10,
		clients:    clients,
		goldenDir:  "../internal/experiments/testdata",
		workDir:    t.TempDir(),
	}
}

// declared reads the metric names and units BENCHMARK.json declares.
func declared(t *testing.T) (e2e, layer map[string]string) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	e2e, layer = map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		layer[m.Name] = m.Unit
	}
	return e2e, layer
}

// TestEveryMetricEmitted runs each workload at a tiny size, untraced and
// traced, and checks that the run is correct and that it emits exactly the
// metrics BENCHMARK.json declares, each with its declared unit.
func TestEveryMetricEmitted(t *testing.T) {
	e2e, layer := declared(t)
	for _, w := range workloadNames {
		for _, trace := range []bool{false, true} {
			cfg := tinyConfig(t, w, trace, 2)
			res, err := runBench(cfg, io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%t: %v", w, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%t: correct=%t attempted=%d failed=%d", w, trace, res.Correct, res.Attempted, res.Failed)
			}
			want := e2e
			if trace {
				want = layer
			}
			for name, unit := range want {
				m, ok := res.Metrics[name]
				if !ok {
					t.Errorf("%s trace=%t: metric %s missing", w, trace, name)
				} else if m.Unit != unit {
					t.Errorf("%s trace=%t: metric %s has unit %q, BENCHMARK.json says %q", w, trace, name, m.Unit, unit)
				}
			}
			for name := range res.Metrics {
				if _, ok := want[name]; !ok {
					t.Errorf("%s trace=%t: metric %s is not declared in BENCHMARK.json", w, trace, name)
				}
			}
			if !trace {
				for name, m := range res.Metrics {
					if m.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", w, name, m.Value)
					}
				}
			} else if res.Metrics["attr.cpu_profile_coverage"].Value <= 0 {
				t.Errorf("%s: the traced phase's CPU profile attributed no time", w)
			}
		}
	}
}

// TestRequestSequenceIndependentOfClients pins the daemon-warm trace: the
// experiment of request j depends on (seed, j) alone, and however many
// clients share the request counter, the requests issued are a prefix of
// that one sequence.
func TestRequestSequenceIndependentOfClients(t *testing.T) {
	ids := experiments.IDs()
	const n = 2000
	ref := make([]string, n)
	counts := map[string]int{}
	for j := range ref {
		ref[j] = requestExp(7, ids, j)
		counts[ref[j]]++
	}
	for _, id := range ids {
		// Every block of len(ids) requests holds each id once.
		if c := counts[id]; c < n/len(ids) || c > n/len(ids)+1 {
			t.Errorf("experiment %s drawn %d times in %d requests, want %d or %d", id, c, n, n/len(ids), n/len(ids)+1)
		}
	}
	for start := 0; start+len(ids) <= n; start += len(ids) {
		seen := map[string]bool{}
		for _, id := range ref[start : start+len(ids)] {
			seen[id] = true
		}
		if len(seen) != len(ids) {
			t.Fatalf("requests %d..%d hold %d distinct ids, want %d", start, start+len(ids)-1, len(seen), len(ids))
		}
	}
	if requestExp(8, ids, 0) == ref[0] && requestExp(8, ids, 1) == ref[1] && requestExp(8, ids, 2) == ref[2] {
		t.Errorf("seeds 7 and 8 start with the same three requests")
	}
	for _, c := range []int{1, 2, 5} {
		var next atomic.Int64
		got := make([]string, n)
		var wg sync.WaitGroup
		for w := 0; w < c; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					j := int(next.Add(1) - 1)
					if j >= n {
						return
					}
					got[j] = requestExp(7, ids, j)
				}
			}()
		}
		wg.Wait()
		for j := range got {
			if got[j] != ref[j] {
				t.Fatalf("clients=%d: request %d is %s, want %s", c, j, got[j], ref[j])
			}
		}
	}
}

// TestDaemonPhaseFollowsSequence runs the daemon workload's timed phase
// with one and with three clients and checks that every request it sent
// is the sequence's request for its index, and that the indices form a
// prefix with no gaps.
func TestDaemonPhaseFollowsSequence(t *testing.T) {
	for _, c := range []int{1, 3} {
		cfg := tinyConfig(t, "daemon-warm", false, c)
		cfg.seed = 5
		b, err := newBench(cfg)
		if err != nil {
			t.Fatal(err)
		}
		w := &daemonWorkload{}
		if _, err := w.setup(b); err != nil {
			t.Fatal(err)
		}
		ph, err := w.phase(b, nil)
		w.close()
		b.cleanup()
		if err != nil {
			t.Fatal(err)
		}
		js := make([]int, 0, len(ph.sent))
		for _, s := range ph.sent {
			if want := requestExp(cfg.seed, cfg.ids, s.j); s.exp != want {
				t.Errorf("clients=%d: request %d sent %s, want %s", c, s.j, s.exp, want)
			}
			js = append(js, s.j)
		}
		sort.Ints(js)
		for i, j := range js {
			if i != j {
				t.Fatalf("clients=%d: request indices are not a prefix: position %d holds %d", c, i, j)
			}
		}
		if b.failed != 0 {
			t.Errorf("clients=%d: %d failed operations", c, b.failed)
		}
	}
}

func TestClassify(t *testing.T) {
	cases := []struct {
		stack []string
		want  string
	}{
		{[]string{"streamline/internal/cache.(*Cache).Access", "streamline/internal/hier.(*Hierarchy).Access"}, "cache"},
		{[]string{"runtime.memmove", "streamline/internal/payload.Random", "streamline/internal/experiments.planTable2.func1"}, "payload"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "runtime_gc"},
		{[]string{"runtime.mallocgc", "runtime.gcAssistAlloc", "streamline/internal/core.Run"}, "runtime_gc"},
		{[]string{"crypto/sha256.block", "crypto/sha256.(*digest).Write", "streamline/internal/core.storeKey"}, "crypto"},
		{[]string{"encoding/json.(*encodeState).marshal", "streamline/internal/daemon.(*Server).handleStatus"}, "http_json"},
		{[]string{"streamline/internal/pattern.XY.Offset"}, "simmisc"},
		{[]string{"runtime.futex", "runtime.findRunnable", "runtime.schedule"}, "other"},
	}
	for _, c := range cases {
		if got := classify(c.stack); got != c.want {
			t.Errorf("classify(%v) = %s, want %s", c.stack, got, c.want)
		}
	}
}
