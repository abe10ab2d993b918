package experiments

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"streamline/internal/core"
	"streamline/internal/resultstore"
)

// The golden conformance suite pins the exact formatted output of every
// experiment at a fixed seed and smoke-test scale. It guards two
// properties at once:
//
//  1. Reproducibility: the experiment pipeline (seed derivation, channel
//     simulation, aggregation, formatting) produces bit-identical output
//     across versions. Any behavioural change — intended or not — shows
//     up as a golden diff and must be reviewed by regenerating with
//     -update.
//  2. Parallel determinism: running the same sweep across an 8-worker
//     pool reproduces the serial reference byte for byte, proving result
//     order and seeding are independent of scheduling.
//
// Regenerate after an intentional change with:
//
//	go test ./internal/experiments -run TestGoldenConformance -update

var update = flag.Bool("update", false, "rewrite golden files from the serial (-workers 1) reference run")

const goldenSeed = 42

func goldenOutput(t *testing.T, id string, workers int) []byte {
	t.Helper()
	tab, err := Run(id, Opts{Seed: goldenSeed, Quick: true, Workers: workers})
	if err != nil {
		t.Fatalf("Run(%q, workers=%d): %v", id, workers, err)
	}
	var buf bytes.Buffer
	tab.Format(&buf)
	return buf.Bytes()
}

func TestGoldenConformance(t *testing.T) {
	if raceEnabled {
		t.Skip("compute-bound golden regeneration exceeds the package timeout under -race; CI runs it in a dedicated race-free job")
	}
	for _, id := range IDs() {
		t.Run(id, func(t *testing.T) {
			path := filepath.Join("testdata", id+".golden")
			got := goldenOutput(t, id, 1)
			if *update {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (run with -update to create): %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("serial output differs from %s\n--- got ---\n%s--- want ---\n%s", path, got, want)
			}
			if testing.Short() {
				return
			}
			if par := goldenOutput(t, id, 8); !bytes.Equal(par, want) {
				t.Errorf("workers=8 output differs from the serial golden — parallel execution is not deterministic\n--- got ---\n%s--- want ---\n%s", par, want)
			}
			// Third axis: simulator pooling (on by default above) must be
			// invisible in the output — a from-scratch
			// build per run reproduces the same bytes.
			prev := core.SetReuse(false)
			noReuse := goldenOutput(t, id, 8)
			core.SetReuse(prev)
			if !bytes.Equal(noReuse, want) {
				t.Errorf("reuse-off output differs from the golden — simulator reuse is leaking state\n--- got ---\n%s--- want ---\n%s", noReuse, want)
			}
			// Fourth axis: the mid-run checkpoint tree (chained experiments
			// fork from published snapshots and dedup through the result
			// memo) must also be invisible — with checkpoints disabled every
			// chained run simulates from scratch and reproduces the bytes.
			prevCkpt := core.SetCheckpoints(false)
			cold := goldenOutput(t, id, 8)
			core.SetCheckpoints(prevCkpt)
			if !bytes.Equal(cold, want) {
				t.Errorf("checkpoint-off output differs from the golden — checkpoint forking is changing results\n--- got ---\n%s--- want ---\n%s", cold, want)
			}
			// Fifth axis: the on-disk result store. A store-backed sweep
			// must be invisible twice over — the cold pass (simulating and
			// writing back) and the warm pass (served entirely from disk)
			// both reproduce the committed bytes.
			st, err := resultstore.Open(t.TempDir(), resultstore.Options{})
			if err != nil {
				t.Fatal(err)
			}
			prevStore := core.SetStore(st)
			defer core.SetStore(prevStore)
			if storeCold := goldenOutput(t, id, 8); !bytes.Equal(storeCold, want) {
				t.Errorf("store-on cold output differs from the golden — write-back is changing results\n--- got ---\n%s--- want ---\n%s", storeCold, want)
			}
			if storeWarm := goldenOutput(t, id, 8); !bytes.Equal(storeWarm, want) {
				t.Errorf("store-on warm output differs from the golden — served results are not bit-identical\n--- got ---\n%s--- want ---\n%s", storeWarm, want)
			}
			// Sixth axis: the in-memory result tier. The warm pass above was
			// served from the write-back's own residency; a disabled-tier
			// handle over the same directory (pure disk reads) and a fresh
			// enabled-tier handle (cold memory filling from disk, then
			// resident serving) must all reproduce the committed bytes —
			// memory tier on ≡ off ≡ golden.
			stOff, err := resultstore.Open(st.Dir(), resultstore.Options{MemBytes: -1})
			if err != nil {
				t.Fatal(err)
			}
			core.SetStore(stOff)
			if memOff := goldenOutput(t, id, 8); !bytes.Equal(memOff, want) {
				t.Errorf("memory-tier-off output differs from the golden\n--- got ---\n%s--- want ---\n%s", memOff, want)
			}
			stOn, err := resultstore.Open(st.Dir(), resultstore.Options{})
			if err != nil {
				t.Fatal(err)
			}
			core.SetStore(stOn)
			if memCold := goldenOutput(t, id, 8); !bytes.Equal(memCold, want) {
				t.Errorf("memory-tier disk-fill output differs from the golden\n--- got ---\n%s--- want ---\n%s", memCold, want)
			}
			if memWarm := goldenOutput(t, id, 8); !bytes.Equal(memWarm, want) {
				t.Errorf("memory-tier resident output differs from the golden — the memory tier is not serving the committed bytes\n--- got ---\n%s--- want ---\n%s", memWarm, want)
			}
			if id == corruptAxisID {
				// Corrupt every entry in place: each Get must quarantine and
				// fall back to a cold recompute that still matches the
				// golden. One representative id keeps the axis cheap. The
				// fresh handle models the next process to open the store —
				// its memory tier is cold, so every Get reads the corrupted
				// file (an existing handle's residency would, correctly,
				// keep serving the pristine bytes it wrote).
				corruptStoreEntries(t, st.Dir())
				stCorrupt, err := resultstore.Open(st.Dir(), resultstore.Options{})
				if err != nil {
					t.Fatal(err)
				}
				core.SetStore(stCorrupt)
				if fallback := goldenOutput(t, id, 8); !bytes.Equal(fallback, want) {
					t.Errorf("corrupt-store output differs from the golden — quarantine fallback is changing results\n--- got ---\n%s--- want ---\n%s", fallback, want)
				}
				if stCorrupt.Stats().Quarantined == 0 {
					t.Error("corrupt-store axis quarantined nothing — the corruption never reached Get")
				}
			}
			core.SetStore(prevStore)
		})
	}
}

// corruptAxisID is the experiment the corrupt-entry fallback axis runs on:
// table1 exercises the Out-level cache (its points never reach core.Run)
// and is among the cheapest sweeps to recompute.
const corruptAxisID = "table1"

// corruptStoreEntries flips the final byte of every entry under dir.
func corruptStoreEntries(t *testing.T, dir string) {
	t.Helper()
	n := 0
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		b[len(b)-1] ^= 0xff
		if err := os.WriteFile(path, b, 0o644); err != nil {
			return err
		}
		n++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("store directory holds no entries to corrupt")
	}
}
