package harness

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"numasim/internal/ace"
	"numasim/internal/sim"
)

// TestPoolOrderAndErrors: the pool runs every index exactly once and
// surfaces the smallest-index error, sequentially and in parallel.
func TestPoolOrderAndErrors(t *testing.T) {
	for _, workers := range []int{1, 4} {
		hits := make([]int, 16)
		if err := NewPool(workers).Run(len(hits), func(i int) error {
			hits[i]++
			return nil
		}); err != nil {
			t.Fatalf("workers=%d: unexpected error %v", workers, err)
		}
		for i, n := range hits {
			if n != 1 {
				t.Errorf("workers=%d: index %d ran %d times", workers, i, n)
			}
		}
		err := NewPool(workers).Run(8, func(i int) error {
			if i >= 3 {
				return errAt(i)
			}
			return nil
		})
		if err == nil || err.Error() != errAt(3).Error() {
			t.Errorf("workers=%d: got error %v, want the smallest failing index (3)", workers, err)
		}
	}
	if err := NewPool(2).Run(0, func(int) error { panic("unreachable") }); err != nil {
		t.Errorf("empty run: %v", err)
	}
}

type errAt int

func (e errAt) Error() string { return "fail" + string(rune('0'+int(e))) }

// TestTable3ParallelDeterminism: the rendered Table 3 and every underlying
// per-run measurement must be byte-identical whether the harness runs its
// simulations sequentially or four at a time. This is the PR's core
// guarantee: parallelism changes wall-clock time, never simulated results.
func TestTable3ParallelDeterminism(t *testing.T) {
	seqOpts := Options{NProc: 3, Small: true, Parallelism: 1}
	parOpts := Options{NProc: 3, Small: true, Parallelism: 4}

	seq, err := Table3(seqOpts)
	if err != nil {
		t.Fatal(err)
	}
	par, err := Table3(parOpts)
	if err != nil {
		t.Fatal(err)
	}

	if got, want := RenderTable3(par), RenderTable3(seq); got != want {
		t.Errorf("rendered Table 3 differs between parallel and sequential runs:\nsequential:\n%s\nparallel:\n%s", want, got)
	}
	if got, want := RenderTable3CSV(par), RenderTable3CSV(seq); got != want {
		t.Errorf("Table 3 CSV differs between parallel and sequential runs:\nsequential:\n%s\nparallel:\n%s", want, got)
	}
	for i := range seq {
		s, p := seq[i].Eval, par[i].Eval
		if s.Alpha != p.Alpha || s.Beta != p.Beta || s.Gamma != p.Gamma {
			t.Errorf("%s: model parameters differ: sequential (α=%v β=%v γ=%v), parallel (α=%v β=%v γ=%v)",
				seq[i].App, s.Alpha, s.Beta, s.Gamma, p.Alpha, p.Beta, p.Gamma)
		}
		if s.Tglobal != p.Tglobal || s.Tnuma != p.Tnuma || s.Tlocal != p.Tlocal {
			t.Errorf("%s: run times differ: sequential (%v, %v, %v), parallel (%v, %v, %v)",
				seq[i].App, s.Tglobal, s.Tnuma, s.Tlocal, p.Tglobal, p.Tnuma, p.Tlocal)
		}
		if s.NumaRun.Refs != p.NumaRun.Refs {
			t.Errorf("%s: T_numa reference counts differ: sequential %+v, parallel %+v",
				seq[i].App, s.NumaRun.Refs, p.NumaRun.Refs)
		}
		if s.NumaRun.Faults != p.NumaRun.Faults || s.NumaRun.NUMA != p.NumaRun.NUMA {
			t.Errorf("%s: T_numa protocol activity differs between parallel and sequential runs", seq[i].App)
		}
	}
}

// TestTopologyParallelDeterminism: the determinism guarantee extends to
// the contended multi-node topologies — the token-bucket link clocks and
// round-robin interleave cursor are per-machine state, so Table 3 on the
// 4-socket and mesh machines is byte-identical at every -parallel,
// link-contention statistics included.
func TestTopologyParallelDeterminism(t *testing.T) {
	for _, topo := range []string{"4socket", "mesh8"} {
		seq, err := Table3Single(Options{NProc: 4, Small: true, Parallelism: 1, Topology: topo}, "Gfetch")
		if err != nil {
			t.Fatalf("%s: %v", topo, err)
		}
		par, err := Table3Single(Options{NProc: 4, Small: true, Parallelism: 8, Topology: topo}, "Gfetch")
		if err != nil {
			t.Fatalf("%s: %v", topo, err)
		}
		if got, want := RenderTable3([]Table3Row{par}), RenderTable3([]Table3Row{seq}); got != want {
			t.Errorf("%s: rendered row differs between parallel and sequential runs:\nsequential:\n%s\nparallel:\n%s", topo, want, got)
		}
		s, p := seq.Eval, par.Eval
		if s.Tglobal != p.Tglobal || s.Tnuma != p.Tnuma || s.Tlocal != p.Tlocal ||
			s.NumaRun.Refs != p.NumaRun.Refs || s.NumaRun.NUMA != p.NumaRun.NUMA {
			t.Errorf("%s: per-run measurements differ between parallel and sequential runs", topo)
		}
		if len(s.NumaRun.Links) == 0 {
			t.Errorf("%s: contended topology reported no link stats", topo)
		}
		if !reflect.DeepEqual(s.NumaRun.Links, p.NumaRun.Links) {
			t.Errorf("%s: link stats differ:\nsequential %+v\nparallel   %+v", topo, s.NumaRun.Links, p.NumaRun.Links)
		}
		var waited sim.Time
		for _, l := range s.NumaRun.Links {
			waited += l.Waited
		}
		if waited == 0 {
			t.Logf("%s: note: no queueing delay observed at this problem size", topo)
		}
	}
}

// TestTable4ParallelDeterminism: same guarantee for the system-time table
// and for the false-sharing experiment, whose units each run an
// evaluation's pool as Table 4's rows do.
func TestTable4ParallelDeterminism(t *testing.T) {
	for _, name := range []string{"table4", "falsesharing"} {
		e, _ := Lookup(name)
		render := func(parallelism int) string {
			res, err := e.Run(Options{NProc: 3, Small: true, Parallelism: parallelism})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			return res.Render()
		}
		if seq, par := render(1), render(4); par != seq {
			t.Errorf("rendered %s differs between parallel and sequential runs:\nsequential:\n%s\nparallel:\n%s", name, seq, par)
		}
	}
}

// TestParallelismBoundsNestedPools: Parallelism bounds the simulations
// running at once across nested pools too, in every registered
// experiment. Table 3, Table 4 and the false-sharing experiment run their
// applications on a pool, and each application's evaluation runs its
// three runs on a pool of its own. Every build waits until one more build
// than the bound is waiting with it, or a short hold passes, so a harness
// that lets the bound slip is caught with the extra machine.
func TestParallelismBoundsNestedPools(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole registry")
	}
	const bound, hold = 2, 30 * time.Millisecond
	for _, name := range Names() {
		e, _ := Lookup(name)
		var mu sync.Mutex
		waiting, peak := 0, 0
		crowd := make(chan struct{}) // closed once bound+1 builds wait together
		opts := Options{NProc: 3, Small: true, Parallelism: bound}
		opts.onMachine = func(*ace.Machine) {
			mu.Lock()
			waiting++
			if waiting > peak {
				peak = waiting
				if peak == bound+1 {
					close(crowd)
				}
			}
			mu.Unlock()
			select {
			case <-crowd:
			case <-time.After(hold):
			}
			mu.Lock()
			waiting--
			mu.Unlock()
		}
		if _, err := e.Run(opts); err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if peak > bound {
			t.Errorf("%s: %d machines were built at once at Parallelism %d", name, peak, bound)
		}
	}
}
