package workloads

import (
	"fmt"
	"math/bits"

	"numasim/internal/cthreads"
	"numasim/internal/vm"
)

// primeSieve is a Primes run's answer key: an odd-only bit sieve of the
// numbers up to limit, built on the host once per run.
type primeSieve struct {
	limit uint32
	// composite has bit i set when the odd number 3+2i is composite.
	composite []uint64
	// count is the number of primes <= limit, 2 included.
	count int
}

// oddCandidates returns how many of the odd numbers 3, 5, ... are <= limit.
func oddCandidates(limit uint32) uint32 {
	if limit < 3 {
		return 0
	}
	return (limit - 1) / 2
}

// newPrimeSieve sieves the odd numbers up to limit. Arithmetic is done in
// uint64 so p*p cannot wrap for large limits.
func newPrimeSieve(limit uint32) *primeSieve {
	n := uint64(oddCandidates(limit))
	s := &primeSieve{limit: limit, composite: make([]uint64, (n+63)/64)}
	for i := uint64(0); ; i++ {
		p := 3 + 2*i
		if p*p > uint64(limit) {
			break
		}
		if s.composite[i/64]&(1<<(i%64)) != 0 {
			continue
		}
		// Strike p*p, p*p+2p, ...: bit (p*p-3)/2, then every p-th bit.
		for j := (p*p - 3) / 2; j < n; j += p {
			s.composite[j/64] |= 1 << (j % 64)
		}
	}
	s.count = s.primesTo(limit)
	return s
}

// primesTo returns the number of primes <= n, 2 included; n must not
// exceed the sieve's limit.
func (s *primeSieve) primesTo(n uint32) int {
	if n < 2 {
		return 0
	}
	k := oddCandidates(n)
	c := 1 + int(k)
	for _, w := range s.composite[:k/64] {
		c -= bits.OnesCount64(w)
	}
	if r := k % 64; r != 0 {
		c -= bits.OnesCount64(s.composite[k/64] & (1<<r - 1))
	}
	return c
}

// oddCount returns the number of odd primes <= limit.
func (s *primeSieve) oddCount() int { return max(s.count-1, 0) }

// isOddPrime reports whether n is an odd prime <= the sieve's limit.
func (s *primeSieve) isOddPrime(n uint32) bool {
	if n < 3 || n > s.limit || n%2 == 0 {
		return false
	}
	i := (n - 3) / 2
	return s.composite[i/64]&(1<<(i%64)) == 0
}

// oddPrimes returns the odd primes <= n in ascending order; n must not
// exceed the sieve's limit.
func (s *primeSieve) oddPrimes(n uint32) []uint32 {
	var out []uint32
	for p := uint32(3); p <= n; p += 2 {
		if s.isOddPrime(p) {
			out = append(out, p)
		}
	}
	return out
}

// check verifies an output vector of got entries, read by at: it must
// hold each prime <= limit exactly once, in any order, or each odd prime
// when odd is set. The count must match and every entry must be such a
// prime not seen before; together the two prove the set exact.
func (s *primeSieve) check(name string, got int, at func(i int) uint32, odd bool) error {
	want, what := s.count, "prime"
	if odd {
		want, what = s.oddCount(), "odd prime"
	}
	if got != want {
		return fmt.Errorf("%s: found %d %ss, want %d", name, got, what, want)
	}
	seen := make([]uint64, len(s.composite))
	seenTwo := false
	for i := 0; i < got; i++ {
		v := at(i)
		fresh := false
		switch {
		case v == 2 && !odd && s.limit >= 2:
			fresh, seenTwo = !seenTwo, true
		case s.isOddPrime(v):
			j := (v - 3) / 2
			fresh = seen[j/64]&(1<<(j%64)) == 0
			seen[j/64] |= 1 << (j % 64)
		}
		if !fresh {
			return fmt.Errorf("%s: output[%d] = %d is not a new %s <= %d", name, i, v, what, s.limit)
		}
	}
	return nil
}

// Primes1 "determines if an odd number is prime by dividing it by all odd
// numbers less than its square root and checking for remainders. It
// computes heavily (division is expensive on the ACE) and most of its
// memory references are to the stack during subroutine linkage" (§3.2).
type Primes1 struct {
	Limit uint32

	counts []uint32
}

// NewPrimes1 creates a Primes1 instance; zero selects the default limit
// (the paper searched to 10,000,000 — hours of 1989 CPU time).
func NewPrimes1(limit uint32) *Primes1 {
	if limit == 0 {
		limit = 50000
	}
	return &Primes1{Limit: limit}
}

// Name implements Workload.
func (w *Primes1) Name() string { return "Primes1" }

// FetchHeavy implements Workload.
func (w *Primes1) FetchHeavy() bool { return false }

// Start implements Workload.
func (w *Primes1) Start(rt *cthreads.Runtime, nworkers int) func() error {
	answer := newPrimeSieve(w.Limit)
	// Candidates are the odd numbers 3,5,... <= Limit; unit i is 3+2i.
	pile := rt.NewWorkPile(oddCandidates(w.Limit))
	w.counts = make([]uint32, nworkers)
	stacks := make([]uint32, nworkers)
	for i := range stacks {
		stacks[i] = rt.Alloc(fmt.Sprintf("stack%d", i), 4096)
	}
	const batch = 32
	rt.Start(nworkers, func(id int, c *vm.Context) {
		stack := stacks[id]
		var count uint32
		for {
			lo, hi, ok := pile.NextBatch(c, batch)
			if !ok {
				break
			}
			for u := lo; u < hi; u++ {
				n := 3 + 2*u
				prime := true
				for d := uint32(3); d*d <= n; d += 2 {
					// The divide is a subroutine: linkage stores the
					// argument into and reloads the result from the stack
					// frame around the expensive software divide.
					c.Store32(stack+4, d)
					c.Div(1)
					c.Load32(stack + 8)
					c.Compute(3) // d*d bound check and loop control
					if n%d == 0 {
						prime = false
						break
					}
				}
				if prime {
					count++
				}
			}
		}
		w.counts[id] = count
	})
	return func() error {
		var got int
		for _, n := range w.counts {
			got += int(n)
		}
		want := answer.oddCount() // candidates exclude 2
		if got != want {
			return fmt.Errorf("Primes1: found %d odd primes <= %d, want %d", got, w.Limit, want)
		}
		return nil
	}
}

// Primes2 "divides each prime candidate by all previously found primes
// less than its square root. Each thread keeps a private list of primes to
// be used as divisors, so virtually all data references are local" (§3.2).
//
// Tuned=false reproduces the initial version of §4.2, in which threads
// fetched divisors directly from the writably-shared output vector of
// found primes, holding α to about 0.66; the tuned version copies the
// divisors into a private vector first, raising α to about 1.0.
type Primes2 struct {
	Limit uint32
	Tuned bool

	task    *vm.Task
	outVec  uint32
	outCnt  uint32
	outLock *cthreads.SpinLock
	answer  *primeSieve
}

// NewPrimes2 creates a Primes2 instance; zero selects the default limit.
func NewPrimes2(limit uint32, tuned bool) *Primes2 {
	if limit == 0 {
		limit = 100000
	}
	return &Primes2{Limit: limit, Tuned: tuned}
}

// Name implements Workload.
func (w *Primes2) Name() string {
	if w.Tuned {
		return "Primes2"
	}
	return "Primes2-untuned"
}

// FetchHeavy implements Workload.
func (w *Primes2) FetchHeavy() bool { return false }

// isqrt returns the integer square root.
func isqrt(n uint32) uint32 {
	r := uint32(0)
	for (r+1)*(r+1) <= n {
		r++
	}
	return r
}

// Start implements Workload.
func (w *Primes2) Start(rt *cthreads.Runtime, nworkers int) func() error {
	w.task = rt.Task()
	w.answer = newPrimeSieve(w.Limit)
	capacity := uint32(w.answer.count + 8)
	w.outVec = rt.Alloc("found-primes", capacity*4)
	cntBase := rt.Alloc("found-count", 8)
	w.outCnt = cntBase
	w.outLock = cthreads.NewSpinLockAt(cntBase + 4)

	root := isqrt(w.Limit)
	privVecs := make([]uint32, nworkers)
	stacks := make([]uint32, nworkers)
	for i := range privVecs {
		privVecs[i] = rt.Alloc(fmt.Sprintf("divisors%d", i), (uint32(w.answer.primesTo(root))+4)*4)
		stacks[i] = rt.Alloc(fmt.Sprintf("stack%d", i), 4096)
	}

	// Candidates above the seed range, odd only. Below limit 4 there may
	// be none, and the pile's one unit finds its candidate past Limit.
	firstCand := root + 1 | 1
	var nCand uint32
	if w.Limit >= firstCand {
		nCand = (w.Limit - firstCand) / 2
	}
	pile := rt.NewWorkPile(nCand + 1)
	// The seeds reach 2 whenever Limit does: the candidates are odd.
	seedTop := root
	if w.Limit >= 2 {
		seedTop = max(seedTop, 2)
	}

	rt.StartMain(func(mc *vm.Context) {
		// The main thread seeds the shared output vector with the primes
		// up to sqrt(Limit) by trial division.
		var nSeed uint32
		for n := uint32(2); n <= seedTop; n++ {
			prime := true
			for d := uint32(2); d*d <= n; d++ {
				mc.Div(1)
				mc.Compute(2)
				if n%d == 0 {
					prime = false
					break
				}
			}
			if prime {
				mc.Store32(w.outVec+nSeed*4, n)
				nSeed++
			}
		}
		mc.Store32(w.outCnt, nSeed)

		workers := rt.ForkWorkers(mc, nworkers, func(id int, c *vm.Context) {
			stack := stacks[id]
			divBase := w.outVec // untuned: read shared vector directly
			if w.Tuned {
				// Copy the needed divisors into a private vector.
				divBase = privVecs[id]
				for i := uint32(0); i < nSeed; i++ {
					c.Store32(divBase+i*4, c.Load32(w.outVec+i*4))
				}
			}
			const batch = 16
			for {
				lo, hi, ok := pile.NextBatch(c, batch)
				if !ok {
					return
				}
				for u := lo; u < hi; u++ {
					n := firstCand + 2*u
					if n > w.Limit {
						break
					}
					prime := true
					for i := uint32(0); i < nSeed; i++ {
						d := c.Load32(divBase + i*4)
						if d*d > n {
							c.Compute(2)
							break
						}
						// The compiler keeps the candidate and the
						// remainder in the stack frame.
						c.Load32(stack)
						c.Div(1)
						c.Store32(stack+4, n%d)
						c.Compute(3)
						if n%d == 0 {
							prime = false
							break
						}
					}
					if prime {
						// Append to the shared output vector.
						w.outLock.Lock(c)
						idx := c.Load32(w.outCnt)
						c.Store32(w.outVec+idx*4, n)
						c.Store32(w.outCnt, idx+1)
						w.outLock.Unlock(c)
					}
				}
			}
		})
		for _, wk := range workers {
			wk.Join(mc)
		}
	})
	return w.verify
}

func (w *Primes2) verify() error {
	return w.answer.check(w.Name(), int(readWord(w.task, w.outCnt)), func(i int) uint32 {
		return readWord(w.task, w.outVec+uint32(i)*4)
	}, false)
}

// Primes3 is "a variant of the Sieve of Eratosthenes, with the sieve
// represented as a bit vector of odd numbers in shared memory. It produces
// an integer vector of results by masking off composites in the bit vector
// and scanning for the remaining primes. It references the shared bit
// vector heavily, fetching and storing as it masks off bits" (§3.2).
type Primes3 struct {
	Limit uint32

	task   *vm.Task
	sieve  uint32
	outVec uint32
	outCnt uint32
	answer *primeSieve
}

// NewPrimes3 creates a Primes3 instance; zero selects the paper's limit
// (primes up to 10,000,000).
func NewPrimes3(limit uint32) *Primes3 {
	if limit == 0 {
		limit = 10000000
	}
	return &Primes3{Limit: limit}
}

// Name implements Workload.
func (w *Primes3) Name() string { return "Primes3" }

// FetchHeavy implements Workload.
func (w *Primes3) FetchHeavy() bool { return false }

// Start implements Workload.
func (w *Primes3) Start(rt *cthreads.Runtime, nworkers int) func() error {
	w.task = rt.Task()
	w.answer = newPrimeSieve(w.Limit)
	// Bit i represents the odd number 3+2i.
	nBits := oddCandidates(w.Limit)
	nWords := (nBits + 31) / 32
	// A mapping cannot be empty: below limit 3 the vector keeps one word.
	w.sieve = rt.Alloc("sieve", max(nWords, 1)*4)
	capacity := uint32(w.answer.count + 8)
	w.outVec = rt.Alloc("primes", capacity*4)
	cnt := rt.Alloc("count", 8)
	w.outCnt = cnt
	outLock := cthreads.NewSpinLockAt(cnt + 4)

	// The strike seeds are odd: the sieve holds odd numbers only.
	seeds := w.answer.oddPrimes(isqrt(w.Limit))
	strikePile := rt.NewWorkPile(uint32(len(seeds)))
	scanPile := rt.NewWorkPile(nWords)
	barrier := cthreads.NewBarrier(nworkers)
	// Per-worker private staging for scanned primes, merged into the
	// shared result vector at the end of the scan.
	staging := make([]uint32, nworkers)
	for i := range staging {
		staging[i] = rt.Alloc(fmt.Sprintf("staging%d", i), capacity*4)
	}

	rt.Start(nworkers, func(id int, c *vm.Context) {
		// Strike phase: mask off composites, read-modify-writing the
		// shared bit vector.
		for {
			si, ok := strikePile.Next(c)
			if !ok {
				break
			}
			p := seeds[si]
			c.Mul(1) // p*p
			for m := p * p; m <= w.Limit; m += 2 * p {
				idx := (m - 3) / 2
				va := w.sieve + (idx/32)*4
				bit := uint32(1) << (idx % 32)
				c.Compute(5) // bit-index arithmetic and loop control
				c.FetchOr32(va, bit)
			}
		}
		barrier.Wait(c)
		// Scan phase: collect the remaining primes into a private staging
		// vector ("it also computes heavily while scanning the bit vector
		// for primes"), then merge into the shared result vector.
		const batch = 8
		mine := staging[id]
		var nMine uint32
		for {
			lo, hi, ok := scanPile.NextBatch(c, batch)
			if !ok {
				break
			}
			for wd := lo; wd < hi; wd++ {
				v := c.Load32(w.sieve + wd*4)
				c.Compute(8) // shift-and-test scanning of the word
				if v == 0xffffffff {
					continue
				}
				for b := uint32(0); b < 32; b++ {
					if v&(1<<b) != 0 {
						continue
					}
					idx := wd*32 + b
					if idx >= nBits {
						break
					}
					c.Store32(mine+nMine*4, 3+2*idx)
					nMine++
				}
			}
		}
		if nMine > 0 {
			outLock.Lock(c)
			at := c.Load32(w.outCnt)
			for k := uint32(0); k < nMine; k++ {
				c.Store32(w.outVec+(at+k)*4, c.Load32(mine+k*4))
			}
			c.Store32(w.outCnt, at+nMine)
			outLock.Unlock(c)
		}
	})
	return w.verify
}

func (w *Primes3) verify() error {
	return w.answer.check(w.Name(), int(readWord(w.task, w.outCnt)), func(i int) uint32 {
		return readWord(w.task, w.outVec+uint32(i)*4)
	}, true)
}
