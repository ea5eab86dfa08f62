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
		k := c.Kernel()
		if task.Name() != "t" || task.Kernel() != k || task.Pmap() == nil {
			t.Error("task accessors wrong")
		}
		if k.NUMA() == nil || k.Pmap() == nil {
			t.Error("kernel accessors wrong")
		}
		va := task.Allocate("obj", 2*4096, mmu.ProtReadWrite)
		e := task.EntryAt(va)
		if e.Prot() != mmu.ProtReadWrite {
			t.Error("entry prot wrong")
		}
		obj := e.Object()
		if obj.Name() != "obj" || obj.Pages() != 2 {
			t.Errorf("object accessors: %q %d", obj.Name(), obj.Pages())
		}
		if len(task.Entries()) != 1 {
			t.Errorf("entries = %d", len(task.Entries()))
		}
		c.Store64(va, 0x1122334455667788)
		if obj.Peek64(0, 0) != 0x1122334455667788 {
			t.Error("Peek64 wrong")
		}
	})
}

func TestContextInstructionCharges(t *testing.T) {
	run1(t, smallCfg(2), nil, func(c *vm.Context) {
		cost := c.Kernel().Machine().Cost()
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
			before := c.Thread().UserTime()
			cse.fn(3)
			got := int64(c.Thread().UserTime() - before)
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

func TestProtectUnmappedPanics(t *testing.T) {
	run1(t, smallCfg(2), nil, func(c *vm.Context) {
		defer func() {
			if recover() == nil {
				t.Error("want panic")
			}
		}()
		c.Task().Protect(c.Thread(), 0xdead0000, mmu.ProtRead)
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

func TestDeallocateUnmappedPanics(t *testing.T) {
	run1(t, smallCfg(2), nil, func(c *vm.Context) {
		defer func() {
			if recover() == nil {
				t.Error("want panic")
			}
		}()
		c.Task().Deallocate(c.Thread(), 0xdead0000)
	})
}

func TestCopyRegionUnmappedPanics(t *testing.T) {
	run1(t, smallCfg(2), nil, func(c *vm.Context) {
		defer func() {
			if recover() == nil {
				t.Error("want panic")
			}
		}()
		c.Task().CopyRegion(c.Thread(), "x", 0xdead0000)
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
// processor, and returns the user time, the references the access added
// to c's processor's row, and the transfers it added to the machine's
// interconnect links.
func charged(c *vm.Context, a accessor, va uint32) (sim.Time, ace.RefStats, uint64) {
	c.Store32(va, 0)
	m := c.Kernel().Machine()
	p := m.Proc(c.Proc())
	t0, r0, x0 := c.Thread().UserTime(), p.Refs(), linkXfers(m)
	a.do(c, va)
	r := p.Refs()
	return c.Thread().UserTime() - t0, ace.RefStats{
		LocalFetch: r.LocalFetch - r0.LocalFetch, LocalStore: r.LocalStore - r0.LocalStore,
		GlobalFetch: r.GlobalFetch - r0.GlobalFetch, GlobalStore: r.GlobalStore - r0.GlobalStore,
		RemoteFetch: r.RemoteFetch - r0.RemoteFetch, RemoteStore: r.RemoteStore - r0.RemoteStore,
	}, linkXfers(m) - x0
}

// linkXfers sums the transfers every interconnect link of m has carried.
func linkXfers(m *ace.Machine) uint64 {
	var n uint64
	for _, l := range m.Topo().LinkStats() {
		n += l.Xfers
	}
	return n
}

// TestAccessorsChargeTheirRow requires every accessor to charge each
// 32-bit word it references once, at its processor's row price, and to
// count it in that processor's row, on the new processor after MigrateTo.
// A reference to a column the row does not route is charged exactly that
// price and moves no link: every reference on the uncontended ACE, and a
// local one on contended 4socket. A global reference on 4socket crosses
// the interconnect, so it costs at least the row's price.
func TestAccessorsChargeTheirRow(t *testing.T) {
	cases := []struct {
		name   string
		topo   string
		pol    numa.Policy
		global bool // the policy places the page in global memory
	}{
		{"ace/local", "", policy.AllLocal{}, false},
		{"ace/global", "", policy.AllGlobal{}, true},
		{"4socket/local", "4socket", policy.AllLocal{}, false},
		{"4socket/global", "4socket", policy.AllGlobal{}, true},
	}
	for _, tc := range cases {
		for _, a := range accessors {
			t.Run(tc.name+"/"+a.name, func(t *testing.T) {
				cfg := smallCfg(4)
				cfg.Topology = tc.topo
				run1(t, cfg, tc.pol, func(c *vm.Context) {
					va := c.Task().Allocate("w", 4096, mmu.ProtReadWrite)
					for _, proc := range []int{0, 1} {
						c.MigrateTo(proc)
						spec := c.Kernel().Machine().Spec()
						col, want := spec.Home(proc), ace.RefStats{LocalFetch: a.fetches, LocalStore: a.stores}
						if tc.global {
							col, want = spec.NNodes(), ace.RefStats{GlobalFetch: a.fetches, GlobalStore: a.stores}
						}
						price := sim.Time(a.fetches)*spec.FetchLatency(proc, col) + sim.Time(a.stores)*spec.StoreLatency(proc, col)
						user, refs, xfers := charged(c, a, va)
						if refs != want {
							t.Errorf("cpu%d: counted %+v, want %+v", proc, refs, want)
						}
						if spec.Routed(proc, col) {
							if user < price {
								t.Errorf("cpu%d: charged %v, want at least the row's %v", proc, user, price)
							}
						} else if user != price || xfers != 0 {
							t.Errorf("cpu%d: charged %v and %d link transfers, want the row's %v and none", proc, user, xfers, price)
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
				c.Kernel().RefTrace = func(proc int, va uint32, write bool) {
					got = append(got, ref{proc, va, write})
				}
				a.do(c, va)
				c.Kernel().RefTrace = nil
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
