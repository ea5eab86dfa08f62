// False sharing (§4.2): two workers each update their own counter, but the
// counters live on the same page, so the page is writably shared even
// though no word in it is — and the placement policy pins it in global
// memory. Padding the counters onto separate pages (the paper's manual
// tuning) keeps every access local.
//
// The example also shows the reference-trace facility detecting the false
// sharing automatically, and reproduces the paper's Primes2 experiment in
// which privatizing the divisor vector raised α from 0.66 to 1.00.
package main

import (
	"fmt"

	"numasim"
)

// run executes the two-counter program with the counters either packed
// onto one page or padded onto separate pages, and reports placement.
func run(padded bool) {
	cfg := numasim.DefaultConfig()
	cfg.NProc = 2
	sys, err := numasim.New(numasim.WithConfig(cfg))
	if err != nil {
		panic(err)
	}

	collector := numasim.NewTraceCollector(sys.Machine.PageShift(), true)
	sys.Kernel.RefTrace = collector.Hook()

	region := sys.Runtime.Alloc("counters", 2*4096)
	addr := []uint32{region, region + 4} // same page
	if padded {
		addr[1] = region + 4096 // "padding data structures out to page boundaries"
	}

	err = sys.Runtime.Run(2, func(id int, c *numasim.Context) {
		for i := 0; i < 400; i++ {
			v := c.Load32(addr[id])
			c.Store32(addr[id], v+1)
			c.Compute(100) // private work between updates
		}
	})
	if err != nil {
		panic(err)
	}

	pg := sys.Runtime.Task().EntryAt(region).Object().Page(0)
	refs := sys.Machine.TotalRefs()
	label := "packed on one page"
	if padded {
		label = "padded to two pages"
	}
	fmt.Printf("%-20s first page: state=%v pinned=%v; %.0f%% of references local\n",
		label, pg.State(), pg.Pinned(), 100*refs.LocalFraction())
	summary := collector.Summarize()
	fmt.Printf("%-20s trace: %d writably-shared page(s), %d falsely shared\n\n",
		"", summary.WritablyShared, summary.FalselyShared)
}

func main() {
	fmt.Println("-- counter pair --")
	run(false)
	run(true)

	// The paper's own false-sharing experiment: Primes2 before and after
	// copying divisors out of the writably-shared output vector.
	fmt.Println("-- Primes2 (§4.2) --")
	for _, name := range []string{"Primes2-untuned", "Primes2"} {
		res, err := numasim.Evaluate(numasim.HarnessOptions{NProc: 4}, name)
		if err != nil {
			panic(err)
		}
		fmt.Printf("%-16s alpha=%.2f gamma=%.2f (paper: untuned 0.66, tuned 1.00)\n",
			name, res.Alpha, res.Gamma)
	}
}
