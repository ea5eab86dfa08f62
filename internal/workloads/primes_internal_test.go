package workloads

import (
	"slices"
	"testing"
)

// trialPrime is the answer key's own oracle: primality by trial division.
func trialPrime(n uint32) bool {
	if n < 2 {
		return false
	}
	for d := uint32(2); d*d <= n; d++ {
		if n%d == 0 {
			return false
		}
	}
	return true
}

// TestPrimeSieveMatchesTrialDivision checks the bit sieve against trial
// division at every limit up to 3000 and at 65537, a prime limit above
// 2^16.
func TestPrimeSieveMatchesTrialDivision(t *testing.T) {
	limits := []uint32{65537}
	for l := uint32(0); l <= 3000; l++ {
		limits = append(limits, l)
	}
	for _, limit := range limits {
		s := newPrimeSieve(limit)
		count := 0
		for n := uint32(0); n <= limit+2; n++ {
			prime := trialPrime(n) && n <= limit
			if prime {
				count++
			}
			if got := s.isOddPrime(n); got != (prime && n%2 == 1) {
				t.Fatalf("limit %d: isOddPrime(%d) = %v", limit, n, got)
			}
			if n <= limit && s.primesTo(n) != count {
				t.Fatalf("limit %d: primesTo(%d) = %d, want %d", limit, n, s.primesTo(n), count)
			}
		}
		if s.count != count {
			t.Fatalf("limit %d: count = %d, want %d", limit, s.count, count)
		}
		root := isqrt(limit)
		var seeds []uint32
		for n := uint32(3); n <= root; n += 2 {
			if trialPrime(n) {
				seeds = append(seeds, n)
			}
		}
		if got := s.oddPrimes(root); !slices.Equal(got, seeds) {
			t.Fatalf("limit %d: oddPrimes(%d) = %v, want %v", limit, root, got, seeds)
		}
	}
}

// TestPrimeSieveCheck hands the Primes2 and Primes3 answer check the exact
// prime set in two orders, then wrong answers it must reject.
func TestPrimeSieveCheck(t *testing.T) {
	const limit = 100
	s := newPrimeSieve(limit)
	var all []uint32
	for n := uint32(2); n <= limit; n++ {
		if trialPrime(n) {
			all = append(all, n)
		}
	}
	check := func(out []uint32, odd bool) error {
		return s.check("test", len(out), func(i int) uint32 { return out[i] }, odd)
	}
	// with returns the set with entry i replaced by v.
	with := func(set []uint32, i int, v uint32) []uint32 {
		out := slices.Clone(set)
		out[i] = v
		return out
	}
	for _, tc := range []struct {
		name string
		odd  bool
		set  []uint32
	}{
		{"Primes2", false, all},
		{"Primes3", true, all[1:]},
	} {
		reversed := slices.Clone(tc.set)
		slices.Reverse(reversed)
		for _, out := range [][]uint32{tc.set, reversed} {
			if err := check(out, tc.odd); err != nil {
				t.Errorf("%s: exact set rejected: %v", tc.name, err)
			}
		}
		// Each wrong answer but the short one keeps the count right.
		last := len(tc.set) - 1
		type wrong struct {
			what string
			out  []uint32
		}
		bad := []wrong{
			{"composite", with(tc.set, last, 91)},
			{"even", with(tc.set, last, 64)},
			{"above limit", with(tc.set, last, 101)},
			{"duplicate first", with(tc.set, last, tc.set[0])},
			{"duplicate second", with(tc.set, last, tc.set[1])},
			{"short count", tc.set[:last]},
		}
		if tc.odd {
			bad = append(bad, wrong{"two", with(tc.set, last, 2)})
		}
		for _, b := range bad {
			if err := check(b.out, tc.odd); err == nil {
				t.Errorf("%s: accepted a wrong answer (%s)", tc.name, b.what)
			}
		}
	}
}
