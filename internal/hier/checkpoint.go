// Mid-run checkpoints (see DESIGN.md "Snapshot tree & work stealing").
// A Checkpoint freezes the complete hierarchy state — cache tags, policy
// metadata, prefetcher training, DRAM timing, directory — via the universal
// Clone/CopyFrom lifecycle, so a later run with the *same* seed can resume
// from the frozen point exactly. The only thing a checkpoint cannot carry
// is the external attachment the lifecycle deliberately leaves out (a
// counter monitor).

package hier

import "fmt"

// Checkpoint is a frozen deep snapshot of a hierarchy mid-run. It is
// immutable after capture: restoring copies out of it, so one checkpoint
// can seed any number of forks.
type Checkpoint struct {
	h *Hierarchy
}

// TakeCheckpoint captures the hierarchy's complete state. It refuses a
// hierarchy with an attached Monitor, the one external attachment the
// lifecycle does not carry, because a fork restored without it would
// diverge from the run that took the snapshot.
func (h *Hierarchy) TakeCheckpoint() (*Checkpoint, error) {
	if h.mon != nil {
		return nil, fmt.Errorf("hier: cannot checkpoint with a monitor attached (Clone drops instrumentation)")
	}
	c, err := h.Clone()
	if err != nil {
		return nil, err
	}
	return &Checkpoint{h: c}, nil
}

// RestoreInto overwrites dst with the checkpointed state, in place and
// without allocating. dst must have the same shape (machine and options) as
// the hierarchy the checkpoint was taken from; a mismatch panics, exactly
// like CopyFrom.
func (c *Checkpoint) RestoreInto(dst *Hierarchy) { dst.CopyFrom(c.h) }

// Materialize builds a fresh hierarchy carrying the checkpointed state, for
// forks that have no same-shape hierarchy to restore into.
func (c *Checkpoint) Materialize() (*Hierarchy, error) { return c.h.Clone() }

// Seed reports the seed the checkpointed hierarchy was built (or last
// reset) with; forks must run under the same seed to stay exact.
func (c *Checkpoint) Seed() uint64 { return c.h.opt.Seed }
