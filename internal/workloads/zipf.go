package workloads

import (
	"fmt"

	"numasim/internal/cthreads"
	"numasim/internal/sim"
	"numasim/internal/vm"
)

// Zipf is the skewed probe workload for the adaptive policy zoo. Phase one
// has every worker storing to pages drawn from a zipf-like distribution
// over the whole range, so a handful of hot pages ping-pong hard enough to
// use up any fixed move threshold and get pinned in global memory. After a
// quiet gap the program partitions the pages and each worker increments
// only its own — still with skewed popularity, so the formerly-hot pages
// stay the most referenced but are now single-writer. A decaying policy
// forgets the phase-one ping-pong and brings them home; the paper's
// Threshold leaves them pinned forever and pays a global reference for
// every phase-two access.
//
// All randomness comes from a private splitmix64 stream seeded per worker,
// so the draw sequences — and therefore the verified final counts — are
// byte-identical across runs and host parallelism.
type Zipf struct {
	Pages        int
	SharedRounds int
	OwnDraws     int
	Seed         uint64

	task   *vm.Task
	base   uint32
	counts []uint32
}

// NewZipf creates a Zipf probe; zeros select defaults.
func NewZipf(pages, sharedRounds, ownDraws int) *Zipf {
	if pages <= 0 {
		pages = 12
	}
	if sharedRounds <= 0 {
		sharedRounds = 4
	}
	if ownDraws <= 0 {
		ownDraws = 4000
	}
	return &Zipf{Pages: pages, SharedRounds: sharedRounds, OwnDraws: ownDraws, Seed: 0x5eed}
}

// Name implements Workload.
func (w *Zipf) Name() string { return "Zipf" }

// FetchHeavy implements Workload.
func (w *Zipf) FetchHeavy() bool { return false }

// splitmix64 advances state and returns the next value of the stream
// (Steele et al.'s SplitMix64 finalizer — deterministic, no math/rand).
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4b893
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// zipfIdx maps a random draw onto [0, n) with a cubic skew: index k is
// drawn with probability density falling off like a zipf tail, so index 0
// is by far the most popular.
func zipfIdx(r uint64, n int) int {
	u := r & 0xFFFF
	return int(u * u * u * uint64(n) >> 48)
}

// sharedState seeds worker id's phase-one draw stream.
func (w *Zipf) sharedState(id int) uint64 {
	return w.Seed ^ uint64(id+1)*0x9e3779b97f4a7c15
}

// ownState seeds worker id's phase-two draw stream.
func (w *Zipf) ownState(id int) uint64 {
	return w.Seed ^ 0xa5a5a5a5a5a5a5a5 ^ uint64(id+1)*0xff51afd7ed558ccd
}

// partition lists the pages owned by worker id in phase two.
func (w *Zipf) partition(id, nworkers int) []int {
	var own []int
	for p := id; p < w.Pages; p += nworkers {
		own = append(own, p)
	}
	return own
}

// Start implements Workload.
func (w *Zipf) Start(rt *cthreads.Runtime, nworkers int) func() error {
	ps := rt.Kernel().Machine().PageSize()
	w.task = rt.Task()
	w.base = rt.Alloc("zipf", uint32(w.Pages*ps))
	barrier := cthreads.NewBarrier(nworkers)

	// Replay every worker's phase-two draw stream up front to know the
	// exact increment count each page must end with.
	w.counts = make([]uint32, w.Pages)
	for id := 0; id < nworkers; id++ {
		own := w.partition(id, nworkers)
		if len(own) == 0 {
			continue
		}
		st := w.ownState(id)
		for i := 0; i < w.OwnDraws; i++ {
			w.counts[own[zipfIdx(splitmix64(&st), len(own))]]++
		}
	}

	rt.Start(nworkers, func(id int, c *vm.Context) {
		// Phase 1: skewed contended stores over the whole range. The hot
		// low-numbered pages ping-pong between writers.
		st := w.sharedState(id)
		for r := 0; r < w.SharedRounds; r++ {
			for i := 0; i < w.Pages; i++ {
				p := zipfIdx(splitmix64(&st), w.Pages)
				c.Store32(w.base+uint32(p*ps), uint32(r+1))
			}
			barrier.Wait(c)
		}
		// Quiet gap between program phases: long enough for a decaying
		// policy's histograms to forget the phase-one ping-pong.
		c.Compute(2000)
		c.Thread().Idle(400 * sim.Millisecond)
		barrier.Wait(c)
		// Phase 2: strictly partitioned single-writer increments, still
		// zipf-skewed within each worker's own pages.
		own := w.partition(id, nworkers)
		if len(own) == 0 {
			return
		}
		for _, p := range own {
			c.Store32(w.base+uint32(p*ps), 0)
		}
		st = w.ownState(id)
		for i := 0; i < w.OwnDraws; i++ {
			va := w.base + uint32(own[zipfIdx(splitmix64(&st), len(own))]*ps)
			c.Store32(va, c.Load32(va)+1)
		}
	})
	return func() error {
		for p := 0; p < w.Pages; p++ {
			got := readWord(w.task, w.base+uint32(p*ps))
			if got != w.counts[p] {
				return fmt.Errorf("Zipf: page %d = %d, want %d", p, got, w.counts[p])
			}
		}
		return nil
	}
}
