package main

import (
	"fmt"
	"time"

	"streamline/internal/core"
	"streamline/internal/resultstore"
)

// setupReps is how many times cold-quick repeats its set-up; setup_s is
// the median. The repetitions reopen one empty directory: creating and
// deleting thousands of directories per run made the file system, not the
// program, set the figure.
const setupReps = 2001

// openEmpty opens a store on a fresh directory: the state a new
// `sweep -exp all -store DIR` process starts a cold pass from.
func (b *bench) openEmpty(prefix string) (*resultstore.Store, error) {
	dir, err := b.newDir(prefix)
	if err != nil {
		return nil, err
	}
	return openStore(dir)
}

// openStore opens the store in dir, installs it as the process's store and
// empties the checkpoint tree.
func openStore(dir string) (*resultstore.Store, error) {
	st, err := resultstore.Open(dir, resultstore.Options{})
	if err != nil {
		return nil, err
	}
	core.SetStore(st)
	core.DropCheckpoints()
	return st, nil
}

// coldWorkload times one pass of every id through an empty store with
// write-back on. The unit of work is the whole pass, so a phase is exactly
// one pass however long --seconds is.
type coldWorkload struct{ passes int }

func (w *coldWorkload) setup(b *bench) (float64, error) {
	dir, err := b.newDir("setup")
	if err != nil {
		return 0, err
	}
	samples := make([]float64, 0, setupReps)
	for i := 0; i < setupReps; i++ {
		t0 := now()
		if _, err := openStore(dir); err != nil {
			return 0, err
		}
		samples = append(samples, now().Sub(t0).Seconds())
	}
	return median(samples), nil
}

func (w *coldWorkload) phase(b *bench, tr *tracer) (*phaseResult, error) {
	st, err := b.openEmpty("cold")
	if err != nil {
		return nil, err
	}
	idx := w.passes
	w.passes++
	var tables map[string][]byte
	ph, err := measure(tr, func(ph *phaseResult) error {
		s0 := st.Stats()
		end := tr.begin("pass", "", idx)
		t0 := now()
		tables = b.pass(tr, idx, ph, nil, "cold")
		ph.passS = append(ph.passS, now().Sub(t0).Seconds())
		end()
		addStats(&ph.store, s0, st.Stats())
		ph.units = 1
		return nil
	})
	if err != nil {
		return nil, err
	}
	b.checkStore(st)
	b.checkGolden(tables, "cold")
	// Untimed round trip: a fresh handle on the written store must serve
	// the same bytes the cold pass computed.
	rt, err := openStore(st.Dir())
	if err != nil {
		return nil, err
	}
	b.pass(nil, -1, &phaseResult{}, tables, "cold round trip")
	b.checkStore(rt)
	return ph, nil
}

func (w *coldWorkload) close() {}

// warmWorkload fills a store with one cold pass at set-up, then times
// passes that each open a fresh handle on it, as a new
// `sweep -exp all -store DIR` process does.
type warmWorkload struct {
	dir    string
	ref    map[string][]byte
	passes int
}

func (w *warmWorkload) setup(b *bench) (float64, error) {
	t0 := now()
	st, err := b.openEmpty("warm")
	if err != nil {
		return 0, err
	}
	w.ref = b.pass(nil, -1, &phaseResult{}, nil, "warm setup")
	setupS := now().Sub(t0).Seconds()
	if len(w.ref) != len(b.cfg.ids) {
		return 0, fmt.Errorf("cold fill produced %d of %d tables", len(w.ref), len(b.cfg.ids))
	}
	b.checkStore(st)
	b.checkGolden(w.ref, "warm setup")
	w.dir = st.Dir()
	return setupS, nil
}

func (w *warmWorkload) phase(b *bench, tr *tracer) (*phaseResult, error) {
	return measure(tr, func(ph *phaseResult) error {
		start := now()
		for {
			idx := w.passes
			w.passes++
			core.DropCheckpoints()
			end := tr.begin("pass", "", idx)
			t0 := now()
			st, err := resultstore.Open(w.dir, resultstore.Options{})
			if err != nil {
				return err
			}
			core.SetStore(st)
			s0 := st.Stats()
			b.pass(tr, idx, ph, w.ref, "warm")
			ph.passS = append(ph.passS, now().Sub(t0).Seconds())
			end()
			addStats(&ph.store, s0, st.Stats())
			b.checkStore(st)
			ph.units++
			if phaseDone(b.cfg, now().Sub(start), len(ph.lat)) {
				return nil
			}
		}
	})
}

func (w *warmWorkload) close() {}

// phaseDone reports whether a time-bounded phase may stop: after --seconds
// once it has --min-samples latencies, and in any case after
// maxPhaseFactor × --seconds.
func phaseDone(cfg config, elapsed time.Duration, samples int) bool {
	s := elapsed.Seconds()
	return (s >= cfg.seconds && samples >= cfg.minSamples) || s >= maxPhaseFactor*cfg.seconds
}
