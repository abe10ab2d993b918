package hier

import (
	"testing"

	"streamline/internal/rng"
)

// TestCheckpointForkMatchesOriginal pins the Checkpoint contract across
// every lifecycle variant: a fork restored from a mid-run checkpoint —
// whether materialized fresh or copied into an existing same-shape
// hierarchy — behaves identically to the hierarchy that took it, and the
// checkpoint stays immutable after forks diverge.
func TestCheckpointForkMatchesOriginal(t *testing.T) {
	for name, mk := range lifecycleVariants() {
		t.Run(name, func(t *testing.T) {
			h := mustNew(t, mk, 21)
			driveHier(h, rng.New(5), 20000)
			ckpt, err := h.TakeCheckpoint()
			if err != nil {
				t.Fatal(err)
			}
			// Materialized fork vs the original: both sit at the frozen
			// point and must stay in lockstep through a shared suffix.
			fork, err := ckpt.Materialize()
			if err != nil {
				t.Fatal(err)
			}
			requireSameHier(t, fork, h, 77, 20000)
			// The suffix above mutated h and fork, but not the checkpoint:
			// two more forks — one restored in place, one materialized —
			// must still agree with each other from the frozen point.
			dst := mustNew(t, mk, 21)
			ckpt.RestoreInto(dst)
			again, err := ckpt.Materialize()
			if err != nil {
				t.Fatal(err)
			}
			requireSameHier(t, dst, again, 99, 20000)
		})
	}
}

// TestCheckpointRefusesAttachments: an attached monitor, the external
// attachment the lifecycle does not carry, makes a hierarchy
// uncheckpointable until removed.
func TestCheckpointRefusesAttachments(t *testing.T) {
	h := mustNew(t, lifecycleVariants()["skylake-default"], 3)

	mon := NewMonitor(len(h.l1), 4096)
	h.AttachMonitor(mon)
	if _, err := h.TakeCheckpoint(); err == nil {
		t.Error("checkpoint allowed with a monitor attached")
	}
	h.DetachMonitor()

	if _, err := h.TakeCheckpoint(); err != nil {
		t.Errorf("checkpoint refused after attachments removed: %v", err)
	}
}
