package vm_test

import (
	"fmt"
	"math/rand"
	"testing"

	"numasim/internal/ace"
	"numasim/internal/numa"
	"numasim/internal/policy"
	"numasim/internal/sim"
	"numasim/internal/vm"
)

// TestKernelChaos drives the full stack — faults, migration, replication,
// pinning, pragma changes, pageout under memory pressure, processor
// migration — with a long random operation stream, checking every load
// against shadow memory. It is the system-level safety net for the whole
// protocol.
func TestKernelChaos(t *testing.T) {
	seeds := []int64{1, 7, 42}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			cfg := ace.DefaultConfig()
			cfg.NProc = 3
			cfg.GlobalFrames = 12 // tight: constant pageout pressure
			cfg.LocalFrames = 8
			cfg.Quantum = 50 * sim.Microsecond
			machine := ace.MustMachine(cfg)
			k := vm.NewKernel(machine, policy.NewPragma(policy.NewThreshold(2)))
			task := k.NewTask()

			const regions = 4
			const pagesPerRegion = 5
			ps := uint32(cfg.PageSize)
			bases := make([]uint32, regions)
			for i := range bases {
				bases[i] = task.Allocate(fmt.Sprintf("r%d", i), pagesPerRegion*ps, 3)
			}
			shadow := make(map[uint32]uint32)
			rng := rand.New(rand.NewSource(seed))

			machine.Engine().Spawn("chaos", 0, func(th *sim.Thread) {
				c := vm.NewContext(k, task, th, 0)
				for step := 0; step < 4000; step++ {
					region := bases[rng.Intn(regions)]
					va := region + uint32(rng.Intn(pagesPerRegion))*ps + uint32(rng.Intn(int(ps/4)))*4
					switch op := rng.Intn(10); {
					case op < 4: // store
						v := rng.Uint32()
						c.Store32(va, v)
						shadow[va] = v
					case op < 8: // load
						if got, want := c.Load32(va), shadow[va]; got != want {
							t.Fatalf("seed %d step %d: [%#x] = %d, want %d", seed, step, va, got, want)
						}
					case op == 8: // change the region's pragma
						switch rng.Intn(4) {
						case 0:
							task.SetHint(region, numa.HintNone)
						case 1:
							task.SetHint(region, numa.HintCacheable)
						case 2:
							task.SetHint(region, numa.HintNoncacheable)
						case 3:
							task.SetHome(region, rng.Intn(cfg.NProc))
						}
					default: // migrate to another processor
						c.MigrateTo(rng.Intn(cfg.NProc))
					}
					if step%64 == 0 {
						for _, base := range bases {
							for i := 0; i < pagesPerRegion; i++ {
								if pg := task.EntryAt(base).Object().Page(i); pg != nil {
									if err := k.NUMA().CheckInvariants(pg); err != nil {
										t.Fatalf("step %d: %v", step, err)
									}
								}
							}
						}
					}
				}
			})
			if err := machine.Engine().Run(); err != nil {
				t.Fatal(err)
			}
			if k.Stats().Pageouts == 0 {
				t.Error("chaos run never paged out; pressure knob broken")
			}
			// Final sweep: every shadowed word must still read back.
			for va, want := range shadow {
				e := task.EntryAt(va)
				idx := int((va - e.Start()) / ps)
				if got := e.Object().Peek32(idx, int(va&(ps-1))); got != want {
					t.Errorf("final [%#x] = %d, want %d", va, got, want)
				}
			}
		})
	}
}

// TestKernelChaosParallel repeats the chaos with three concurrent threads
// on disjoint word sets (so expectations stay deterministic), which adds
// genuine protocol concurrency: interleaved faults, shared pages, spills.
func TestKernelChaosParallel(t *testing.T) {
	cfg := ace.DefaultConfig()
	cfg.NProc = 3
	cfg.GlobalFrames = 16
	cfg.LocalFrames = 8
	cfg.Quantum = 50 * sim.Microsecond
	machine := ace.MustMachine(cfg)
	k := vm.NewKernel(machine, policy.NewThreshold(2))
	task := k.NewTask()
	const pages = 24
	ps := uint32(cfg.PageSize)
	base := task.Allocate("shared", pages*ps, 3)

	for p := 0; p < 3; p++ {
		p := p
		machine.Engine().Spawn(fmt.Sprintf("w%d", p), 0, func(th *sim.Thread) {
			c := vm.NewContext(k, task, th, p)
			rng := rand.New(rand.NewSource(int64(100 + p)))
			mine := make(map[uint32]uint32)
			for step := 0; step < 1500; step++ {
				// Stride-3 word ownership keeps writers disjoint while
				// sharing every page.
				word := uint32(p + 3*rng.Intn(int(ps/4/3)))
				va := base + uint32(rng.Intn(pages))*ps + word*4
				if rng.Intn(2) == 0 {
					v := rng.Uint32()
					c.Store32(va, v)
					mine[va] = v
				} else if want, ok := mine[va]; ok {
					if got := c.Load32(va); got != want {
						t.Errorf("cpu%d step %d: [%#x] = %d, want %d", p, step, va, got, want)
						return
					}
				}
			}
		})
	}
	if err := machine.Engine().Run(); err != nil {
		t.Fatal(err)
	}
	if k.Stats().Pageouts == 0 {
		t.Error("no pageout pressure in parallel chaos")
	}
}
