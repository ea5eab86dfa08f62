package workloads

import (
	"fmt"

	"numasim/internal/cthreads"
	"numasim/internal/vm"
)

// ParMult is the paper's no-shared-memory extreme: it "does nothing but
// integer multiplication. Its only data references are for workload
// allocation and are too infrequent to be visible through measurement
// error. Its β is thus 0 and its α irrelevant" (§3.2).
type ParMult struct {
	Units       int // work units in the pile
	MulsPerUnit int // integer multiplies per unit

	sums []uint64 // per-worker partial checksums (host-side)
}

// NewParMult creates a ParMult instance; zero parameters select defaults.
func NewParMult(units, mulsPerUnit int) *ParMult {
	if units <= 0 {
		units = 350
	}
	if mulsPerUnit <= 0 {
		mulsPerUnit = 400
	}
	return &ParMult{Units: units, MulsPerUnit: mulsPerUnit}
}

// Name implements Workload.
func (w *ParMult) Name() string { return "ParMult" }

// FetchHeavy implements Workload.
func (w *ParMult) FetchHeavy() bool { return false }

// unitChecksum is the real computation of one work unit: a multiply-heavy
// linear-congruential chain.
func unitChecksum(unit uint32, muls int, charge func(muls, adds int)) uint32 {
	x := unit*2654435761 + 1
	for j := 0; j < muls; j++ {
		x = x*1664525 + 1013904223
	}
	charge(muls, muls)
	return x
}

// Start implements Workload.
func (w *ParMult) Start(rt *cthreads.Runtime, nworkers int) func() error {
	pile := rt.NewWorkPile(uint32(w.Units))
	w.sums = make([]uint64, nworkers)
	rt.Start(nworkers, func(id int, c *vm.Context) {
		for {
			unit, ok := pile.Next(c)
			if !ok {
				return
			}
			v := unitChecksum(unit, w.MulsPerUnit, func(muls, adds int) {
				c.Mul(muls)
				c.Compute(adds)
			})
			w.sums[id] += uint64(v)
		}
	})
	return w.verify
}

func (w *ParMult) verify() error {
	var got uint64
	for _, s := range w.sums {
		got += s
	}
	var want uint64
	for u := 0; u < w.Units; u++ {
		want += uint64(unitChecksum(uint32(u), w.MulsPerUnit, func(int, int) {}))
	}
	if got != want {
		return fmt.Errorf("ParMult: checksum %d, want %d", got, want)
	}
	return nil
}
