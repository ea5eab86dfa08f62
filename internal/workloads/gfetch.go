package workloads

import (
	"fmt"

	"numasim/internal/cthreads"
	"numasim/internal/vm"
)

// Gfetch is the paper's all-shared-memory extreme: it "does nothing but
// fetch from shared virtual memory. Loop control and workload allocation
// costs are too small to be seen. Its β is thus 1 and its α 0" (§3.2).
//
// A setup phase writes every page from several different processors in
// turn, so that under the paper's policy the pages use up their move
// budget and are pinned in global memory; the long fetch phase then runs
// entirely against global memory, which is exactly the α=0, γ≈G/L
// behaviour Table 3 reports.
type Gfetch struct {
	Pages       int // shared array size in pages
	Sweeps      int // full fetch passes over the array
	WriteRounds int // ownership-rotation rounds in the setup phase

	sums []uint64
	base uint32
}

// NewGfetch creates a Gfetch instance; zero parameters select defaults.
func NewGfetch(pages, sweeps int) *Gfetch {
	if pages <= 0 {
		pages = 48
	}
	if sweeps <= 0 {
		sweeps = 24
	}
	return &Gfetch{Pages: pages, Sweeps: sweeps, WriteRounds: 6}
}

// Name implements Workload.
func (w *Gfetch) Name() string { return "Gfetch" }

// FetchHeavy implements Workload.
func (w *Gfetch) FetchHeavy() bool { return true }

// pageValue is the deterministic content the setup phase leaves in word wd
// of page p.
func pageValue(p, wd, lastRound int) uint32 {
	return uint32(p)*31 + uint32(wd)*7 + uint32(lastRound)
}

// Start implements Workload.
func (w *Gfetch) Start(rt *cthreads.Runtime, nworkers int) func() error {
	ps := rt.Kernel().Machine().PageSize()
	wordsPerPage := ps / 4
	w.base = rt.Alloc("gfetch", uint32(w.Pages*ps))
	w.sums = make([]uint64, nworkers)
	barrier := cthreads.NewBarrier(nworkers)

	// Each round writes a few words of every page, rotating the writing
	// processor, so every page transfers ownership once per round. Only a
	// subset of words is written so the setup phase stays small next to
	// the fetch phase.
	const wordsWrittenPerRound = 8

	rt.Start(nworkers, func(id int, c *vm.Context) {
		for r := 0; r < w.WriteRounds; r++ {
			for p := 0; p < w.Pages; p++ {
				if (p+r)%nworkers != id {
					continue
				}
				for k := 0; k < wordsWrittenPerRound; k++ {
					wd := k * (wordsPerPage / wordsWrittenPerRound)
					c.Store32(w.base+uint32(p*ps+wd*4), pageValue(p, wd, r))
				}
			}
			barrier.Wait(c)
		}
		// Fetch phase: sweep this worker's partition of the array, reading
		// every word, many times. Pure fetches: β = 1.
		var sum uint64
		for s := 0; s < w.Sweeps; s++ {
			for p := id; p < w.Pages; p += nworkers {
				pb := w.base + uint32(p*ps)
				for wd := 0; wd < wordsPerPage; wd++ {
					sum += uint64(c.Load32(pb + uint32(wd*4)))
				}
			}
		}
		w.sums[id] = sum
	})
	return func() error { return w.verify(rt, nworkers) }
}

func (w *Gfetch) verify(rt *cthreads.Runtime, nworkers int) error {
	ps := rt.Kernel().Machine().PageSize()
	wordsPerPage := ps / 4
	const wordsWrittenPerRound = 8
	var want uint64
	for p := 0; p < w.Pages; p++ {
		var page uint64
		for k := 0; k < wordsWrittenPerRound; k++ {
			wd := k * (wordsPerPage / wordsWrittenPerRound)
			page += uint64(pageValue(p, wd, w.WriteRounds-1))
		}
		want += page
	}
	want *= uint64(w.Sweeps)
	var got uint64
	for _, s := range w.sums {
		got += s
	}
	if got != want {
		return fmt.Errorf("Gfetch: checksum %d, want %d", got, want)
	}
	return nil
}
