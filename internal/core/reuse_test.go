package core

import (
	"reflect"
	"testing"

	"streamline/internal/params"
	"streamline/internal/payload"
)

// TestReuseEquivalence pins the contract of the simulator pool: with reuse
// on, every repetition — the cold run that builds a hierarchy, and the
// pooled runs that reset it in place for the same or a fresh seed — returns
// a Result byte-identical to a from-scratch build with reuse off.
func TestReuseEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-repetition channel runs")
	}
	bits := payload.Random(5, 2000)
	variants := map[string]func() Config{
		"skylake": func() Config {
			cfg := DefaultConfig()
			cfg.ArraySize = 16 << 20
			return cfg
		},
		"skylake-nopf": func() Config {
			cfg := DefaultConfig()
			cfg.ArraySize = 16 << 20
			cfg.DisablePrefetch = true
			return cfg
		},
		"kabylake": func() Config {
			cfg := DefaultConfig()
			cfg.ArraySize = 16 << 20
			cfg.Machine = params.KabyLakeI7()
			return cfg
		},
	}
	defer SetReuse(SetReuse(true)) // restore whatever the process had
	for name, mk := range variants {
		t.Run(name, func(t *testing.T) {
			runWith := func(reuse bool, seed uint64) *Result {
				t.Helper()
				SetReuse(reuse)
				cfg := mk()
				cfg.Seed = seed
				res, err := Run(cfg, bits)
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			refA := runWith(false, 1)
			refB := runWith(false, 99)    // second seed, still from scratch
			gotCold := runWith(true, 1)   // builds a fresh hierarchy
			gotPool := runWith(true, 1)   // pooled Reset, same seed
			gotSeed := runWith(true, 99)  // pooled Reset under a new seed
			gotAgain := runWith(true, 99) // repetition after repetition
			for i, pair := range []struct {
				label    string
				got, ref *Result
			}{
				{"cold", gotCold, refA},
				{"pooled", gotPool, refA},
				{"reseeded", gotSeed, refB},
				{"repeat", gotAgain, refB},
			} {
				if !reflect.DeepEqual(pair.got, pair.ref) {
					t.Errorf("case %d (%s): reuse result differs from scratch build", i, pair.label)
				}
			}
		})
	}
}
