package vm_test

import (
	"errors"
	"slices"
	"strings"
	"testing"

	"numasim/internal/ace"
	"numasim/internal/mmu"
	"numasim/internal/numa"
	"numasim/internal/policy"
	"numasim/internal/sim"
	"numasim/internal/vm"
)

func TestAccessErrorMessage(t *testing.T) {
	e := &vm.AccessError{VA: 0x1234, Write: true, Err: vm.ErrProtection}
	if !strings.Contains(e.Error(), "write fault at 0x1234") {
		t.Errorf("message = %q", e.Error())
	}
	if !errors.Is(e, vm.ErrProtection) {
		t.Error("unwrap broken")
	}
	r := &vm.AccessError{VA: 8, Err: vm.ErrNoMapping}
	if !strings.Contains(r.Error(), "read fault") {
		t.Errorf("message = %q", r.Error())
	}
}

func TestObjectAndTaskAccessors(t *testing.T) {
	run1(t, smallCfg(2), nil, func(c *vm.Context) {
		task := c.Task()
		k := task.Kernel()
		if k.NUMA() == nil || k.Pmap() == nil {
			t.Error("kernel accessors wrong")
		}
		va := task.Allocate("obj", 2*4096, mmu.ProtReadWrite)
		e := task.EntryAt(va)
		if e.Start() != va || e.End() != va+2*4096 {
			t.Errorf("entry spans [%#x, %#x), want [%#x, %#x)", e.Start(), e.End(), va, va+2*4096)
		}
		obj := e.Object()
		c.Store64(va, 0x1122334455667788)
		if obj.Peek64(0, 0) != 0x1122334455667788 {
			t.Error("Peek64 wrong")
		}
	})
}

func TestContextInstructionCharges(t *testing.T) {
	run1(t, smallCfg(2), nil, func(c *vm.Context) {
		m := c.Task().Kernel().Machine()
		e, cost := m.Engine(), m.Cost()
		cases := []struct {
			fn   func(int)
			unit int64
		}{
			{c.Compute, int64(cost.Instr)},
			{c.Mul, int64(cost.Mul)},
			{c.Div, int64(cost.Div)},
			{c.FAdd, int64(cost.FAdd)},
			{c.FMul, int64(cost.FMul)},
			{c.FDiv, int64(cost.FDiv)},
		}
		for i, cse := range cases {
			before := e.TotalUserTime()
			cse.fn(3)
			got := int64(e.TotalUserTime() - before)
			if got != 3*cse.unit {
				t.Errorf("case %d: charged %d, want %d", i, got, 3*cse.unit)
			}
		}
	})
}

func TestTestAndSetAndFetchOr(t *testing.T) {
	run1(t, smallCfg(2), nil, func(c *vm.Context) {
		va := c.Task().Allocate("w", 4096, mmu.ProtReadWrite)
		if c.TestAndSet(va) != 0 {
			t.Error("first TAS should see 0")
		}
		if c.TestAndSet(va) != 1 {
			t.Error("second TAS should see 1")
		}
		c.Store32(va, 0b0101)
		if old := c.FetchOr32(va, 0b0010); old != 0b0101 {
			t.Errorf("FetchOr old = %b", old)
		}
		if c.Load32(va) != 0b0111 {
			t.Errorf("FetchOr result = %b", c.Load32(va))
		}
	})
}

func TestCrossPageAccessPanics(t *testing.T) {
	run1(t, smallCfg(2), nil, func(c *vm.Context) {
		va := c.Task().Allocate("w", 2*4096, mmu.ProtReadWrite)
		defer func() {
			if r := recover(); r == nil {
				t.Error("64-bit access across a page boundary should fault")
			}
		}()
		c.Load64(va + 4096 - 4)
	})
}

func TestSetHintUnmappedPanics(t *testing.T) {
	run1(t, smallCfg(2), nil, func(c *vm.Context) {
		defer func() {
			if recover() == nil {
				t.Error("want panic")
			}
		}()
		c.Task().SetHint(0xdead0000, 0)
	})
}

func TestSetHomeBadProcPanics(t *testing.T) {
	run1(t, smallCfg(2), nil, func(c *vm.Context) {
		va := c.Task().Allocate("w", 4096, mmu.ProtReadWrite)
		defer func() {
			if recover() == nil {
				t.Error("want panic")
			}
		}()
		c.Task().SetHome(va, 99)
	})
}

// accessor is one Context accessor and the 32-bit references it makes:
// fetches and stores are the words it charges, each to the charge row of
// the processor it runs on. The RefTrace hook sees each word it touches
// once, as a write if it stores at all.
type accessor struct {
	name            string
	fetches, stores uint64
	do              func(c *vm.Context, va uint32)
}

var accessors = []accessor{
	{"Load8", 1, 0, func(c *vm.Context, va uint32) { c.Load8(va) }},
	{"Store8", 0, 1, func(c *vm.Context, va uint32) { c.Store8(va, 1) }},
	{"Load32", 1, 0, func(c *vm.Context, va uint32) { c.Load32(va) }},
	{"Store32", 0, 1, func(c *vm.Context, va uint32) { c.Store32(va, 1) }},
	{"Load64", 2, 0, func(c *vm.Context, va uint32) { c.Load64(va) }},
	{"Store64", 0, 2, func(c *vm.Context, va uint32) { c.Store64(va, 1) }},
	{"TestAndSet", 1, 1, func(c *vm.Context, va uint32) { c.TestAndSet(va) }},
	{"FetchOr32", 1, 1, func(c *vm.Context, va uint32) { c.FetchOr32(va, 1) }},
}

// charged runs a at va on c, once the page is mapped writable on c's
// processor and occupy (if not nil) has run, and returns the user and
// system time, the references the access added to c's processor's row,
// and the transfers and queueing delay it added to the machine's
// interconnect links. The times are the engine's totals, so c must run
// alone.
func charged(c *vm.Context, a accessor, va uint32, occupy func()) (user, sys sim.Time, refs ace.RefStats, xfers uint64, waited sim.Time) {
	c.Store32(va, 0)
	if occupy != nil {
		occupy()
	}
	m := c.Task().Kernel().Machine()
	e, p := m.Engine(), m.Proc(c.Proc())
	u0, s0, r0 := e.TotalUserTime(), e.TotalSysTime(), p.Refs()
	x0, w0 := linkTotals(m)
	a.do(c, va)
	r := p.Refs()
	x1, w1 := linkTotals(m)
	return e.TotalUserTime() - u0, e.TotalSysTime() - s0, ace.RefStats{
		LocalFetch: r.LocalFetch - r0.LocalFetch, LocalStore: r.LocalStore - r0.LocalStore,
		GlobalFetch: r.GlobalFetch - r0.GlobalFetch, GlobalStore: r.GlobalStore - r0.GlobalStore,
		RemoteFetch: r.RemoteFetch - r0.RemoteFetch, RemoteStore: r.RemoteStore - r0.RemoteStore,
	}, x1 - x0, w1 - w0
}

// linkTotals sums the transfers every interconnect link of m has carried
// and the queueing delay they waited.
func linkTotals(m *ace.Machine) (xfers uint64, waited sim.Time) {
	for _, l := range m.Topo().LinkStats() {
		xfers += l.Xfers
		waited += l.Waited
	}
	return xfers, waited
}

// Where a case's page lives, relative to the referencing processor.
const (
	atLocal  = iota // the processor's own node
	atGlobal        // global memory
	atRemote        // the node of processor 2, home to neither cpu0 nor cpu1
)

// TestAccessorsChargeTheirRow requires every accessor to charge each
// 32-bit word it references once, at its processor's row price plus any
// queueing on the interconnect, and to count it in that processor's row,
// on the new processor after MigrateTo; no accessor charges system time.
// A reference to a column the row does not route moves no link: every
// reference on the uncontended ACE, and a local one on contended 4socket.
// A remote reference on 4socket crosses exactly one link, so each word
// must move one transfer: a reference path that skips its link charge
// fails here. The remote case first occupies that link with a page-sized
// transfer, so its references queue: a wait that is dropped, or charged
// as system time, fails here too.
func TestAccessorsChargeTheirRow(t *testing.T) {
	cases := []struct {
		name  string
		topo  string
		pol   numa.Policy
		where int
	}{
		{"ace/local", "", policy.AllLocal{}, atLocal},
		{"ace/global", "", policy.AllGlobal{}, atGlobal},
		{"4socket/local", "4socket", policy.AllLocal{}, atLocal},
		{"4socket/global", "4socket", policy.AllGlobal{}, atGlobal},
		{"4socket/remote", "4socket", policy.NewPragma(nil), atRemote},
	}
	for _, tc := range cases {
		for _, a := range accessors {
			t.Run(tc.name+"/"+a.name, func(t *testing.T) {
				cfg := smallCfg(4)
				cfg.Topology = tc.topo
				run1(t, cfg, tc.pol, func(c *vm.Context) {
					va := c.Task().Allocate("w", 4096, mmu.ProtReadWrite)
					if tc.where == atRemote {
						c.Task().SetHome(va, 2)
					}
					m := c.Task().Kernel().Machine()
					for _, proc := range []int{0, 1} {
						c.MigrateTo(proc)
						spec := m.Spec()
						var col int
						var want ace.RefStats
						switch tc.where {
						case atLocal:
							col, want = spec.Home(proc), ace.RefStats{LocalFetch: a.fetches, LocalStore: a.stores}
						case atGlobal:
							col, want = spec.NNodes(), ace.RefStats{GlobalFetch: a.fetches, GlobalStore: a.stores}
						case atRemote:
							col, want = spec.Home(2), ace.RefStats{RemoteFetch: a.fetches, RemoteStore: a.stores}
						}
						price := sim.Time(a.fetches)*spec.FetchLatency(proc, col) + sim.Time(a.stores)*spec.StoreLatency(proc, col)
						var occupy func()
						if tc.where == atRemote {
							occupy = func() { m.Topo().ChargeTransfer(c.Thread().Clock(), proc, col, 4096) }
						}
						user, sys, refs, xfers, waited := charged(c, a, va, occupy)
						if refs != want {
							t.Errorf("cpu%d: counted %+v, want %+v", proc, refs, want)
						}
						if user != price+waited {
							t.Errorf("cpu%d: charged %v, want the row's %v plus the links' %v of queueing", proc, user, price, waited)
						}
						if sys != 0 {
							t.Errorf("cpu%d: charged %v of system time, want none", proc, sys)
						}
						switch {
						case tc.where == atRemote:
							if xfers != a.fetches+a.stores {
								t.Errorf("cpu%d: %d link transfers, want one per word, %d", proc, xfers, a.fetches+a.stores)
							}
							if waited <= 0 {
								t.Errorf("cpu%d: no queueing behind the occupied link", proc)
							}
						case !spec.Routed(proc, col):
							if xfers != 0 {
								t.Errorf("cpu%d: %d link transfers on an unrouted column, want none", proc, xfers)
							}
						}
					}
				})
			})
		}
	}
}

// TestAccessorsTraceEachWord requires the RefTrace hook to see each
// 32-bit word an accessor references once, with its processor and its
// direction.
func TestAccessorsTraceEachWord(t *testing.T) {
	type ref struct {
		proc  int
		va    uint32
		write bool
	}
	for _, a := range accessors {
		t.Run(a.name, func(t *testing.T) {
			run1(t, smallCfg(2), nil, func(c *vm.Context) {
				va := c.Task().Allocate("w", 4096, mmu.ProtReadWrite) + 8
				c.Store64(va, 0)
				c.MigrateTo(1)
				c.Store64(va, 0)
				var got []ref
				c.Task().Kernel().RefTrace = func(proc int, va uint32, write bool) {
					got = append(got, ref{proc, va, write})
				}
				a.do(c, va)
				c.Task().Kernel().RefTrace = nil
				var want []ref
				for w := range max(a.fetches, a.stores) {
					want = append(want, ref{1, va + 4*uint32(w), a.stores > 0})
				}
				if !slices.Equal(got, want) {
					t.Errorf("traced %v, want %v", got, want)
				}
			})
		})
	}
}
