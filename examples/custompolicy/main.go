// Custom policy: the NUMA manager accepts any implementation of the
// cache_policy interface (§2.3.2: "we could easily substitute another
// policy without modifying the NUMA manager"). This example implements a
// write-frequency policy — place a page globally once writes from
// different processors dominate its use — and races it against the
// paper's move-threshold policy on the sieve workload.
package main

import (
	"fmt"

	"numasim"
)

// writeBiased sends a page global when it has been moved at least twice
// AND it has ever been written, and otherwise keeps even hot read-only
// pages local forever. It exists to show the interface, not to win.
type writeBiased struct{}

// CachePolicy implements the placement decision.
//
//numalint:hotpath
func (writeBiased) CachePolicy(pg *numasim.Page, proc int, write bool, maxProt numasim.Prot) numasim.Location {
	if pg.EverWritten() && pg.Moves() >= 2 {
		return numasim.Global
	}
	return numasim.Local
}

// Name identifies the policy in reports.
//
//numalint:hotpath
func (writeBiased) Name() string { return "write-biased(2)" }

func run(pol numasim.Policy) {
	cfg := numasim.DefaultConfig()
	cfg.NProc = 4
	sys, err := numasim.New(numasim.WithConfig(cfg), numasim.WithPolicy(pol))
	if err != nil {
		panic(err)
	}
	w, err := numasim.WorkloadByName("Primes3")
	if err != nil {
		panic(err)
	}
	if err := numasim.RunWorkload(w, sys.Runtime, 4); err != nil {
		panic(err)
	}
	stats := sys.Kernel.NUMA().Stats()
	fmt.Printf("%-18s user %v  sys %v  moves %d  pins %d\n",
		pol.Name(), sys.Machine.Engine().TotalUserTime(),
		sys.Machine.Engine().TotalSysTime(), stats.Moves, stats.Pins)
}

func main() {
	fmt.Println("Primes3 under three placement policies:")
	run(numasim.DefaultPolicy())
	run(writeBiased{})
	run(numasim.NeverPinPolicy())
}
