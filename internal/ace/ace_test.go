package ace

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"numasim/internal/mem"
	"numasim/internal/sim"
)

func TestDefaultCostModelRatios(t *testing.T) {
	// §2.2: global is 2.3x slower than local on fetches, 1.7x on stores,
	// and about 2x for a mix with 45% stores (E13 in DESIGN.md).
	c := DefaultCostModel()
	fetch := float64(c.GlobalFetch) / float64(c.LocalFetch)
	if math.Abs(fetch-2.3) > 0.05 {
		t.Errorf("fetch ratio = %.2f, want ~2.3", fetch)
	}
	store := float64(c.GlobalStore) / float64(c.LocalStore)
	if math.Abs(store-1.7) > 0.05 {
		t.Errorf("store ratio = %.2f, want ~1.7", store)
	}
	mixed := c.GOverL(0.45)
	if math.Abs(mixed-2.0) > 0.1 {
		t.Errorf("mixed G/L = %.2f, want ~2.0", mixed)
	}
	if pure := c.GOverL(0); math.Abs(pure-2.3) > 0.05 {
		t.Errorf("fetch-only G/L = %.2f, want ~2.3", pure)
	}
}

func TestFetchStoreCost(t *testing.T) {
	c := DefaultCostModel()
	g, _ := mem.NewPool(mem.Global, -1, 1, 4096).Alloc()
	l0, _ := mem.NewPool(mem.Local, 0, 1, 4096).Alloc()
	if c.FetchCost(g, 0) != c.GlobalFetch {
		t.Error("global fetch cost wrong")
	}
	if c.FetchCost(l0, 0) != c.LocalFetch {
		t.Error("own-local fetch cost wrong")
	}
	if c.FetchCost(l0, 1) != c.RemoteFetch {
		t.Error("remote fetch cost wrong")
	}
	if c.StoreCost(g, 0) != c.GlobalStore || c.StoreCost(l0, 0) != c.LocalStore || c.StoreCost(l0, 1) != c.RemoteStore {
		t.Error("store costs wrong")
	}
}

func TestCopyZeroCost(t *testing.T) {
	c := DefaultCostModel()
	g, _ := mem.NewPool(mem.Global, -1, 1, 4096).Alloc()
	l0, _ := mem.NewPool(mem.Local, 0, 1, 4096).Alloc()
	// Copying global->local on cpu0: 1024 words * (global fetch + local store).
	want := 1024 * (c.GlobalFetch + c.LocalStore)
	if got := c.CopyCost(g, l0, 0, 4096); got != want {
		t.Errorf("CopyCost = %v, want %v", got, want)
	}
	if got := c.ZeroCost(l0, 0, 4096); got != 1024*c.LocalStore {
		t.Errorf("ZeroCost = %v", got)
	}
}

func TestConfigValidate(t *testing.T) {
	good := DefaultConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := []func(*Config){
		func(c *Config) { c.NProc = 0 },
		func(c *Config) { c.PageSize = 1000 },
		func(c *Config) { c.PageSize = 8 },
		func(c *Config) { c.GlobalFrames = 0 },
		func(c *Config) { c.LocalFrames = -1 },
		func(c *Config) { c.Quantum = 0 },
	}
	for i, mut := range bad {
		c := DefaultConfig()
		mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d passed validation", i)
		}
	}
}

func TestNewMachine(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NProc = 3
	m := MustMachine(cfg)
	if m.NProc() != 3 {
		t.Errorf("NProc = %d", m.NProc())
	}
	for i := 0; i < 3; i++ {
		if m.Proc(i).ID() != i {
			t.Errorf("proc %d has id %d", i, m.Proc(i).ID())
		}
		if m.MMU(i).Proc() != i {
			t.Errorf("mmu %d has proc %d", i, m.MMU(i).Proc())
		}
	}
	if m.Memory().NProc() != 3 {
		t.Error("memory pools mismatch")
	}
	if m.Engine() == nil {
		t.Error("nil engine")
	}
}

func TestNewMachineBadConfig(t *testing.T) {
	if _, err := NewMachine(Config{}); err == nil {
		t.Fatal("NewMachine(Config{}): want error")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustMachine(Config{}): want panic")
		}
	}()
	MustMachine(Config{})
}

func TestVPNAndOffset(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PageSize = 4096
	m := MustMachine(cfg)
	if m.PageShift() != 12 {
		t.Errorf("PageShift = %d", m.PageShift())
	}
	if m.VPN(0x12345) != 0x12 {
		t.Errorf("VPN = %#x", m.VPN(0x12345))
	}
	if m.PageOff(0x12345) != 0x345 {
		t.Errorf("PageOff = %#x", m.PageOff(0x12345))
	}
}

// TestChargeAndCount charges scripted references on two machines: the ACE,
// where node and processor coincide, and 4socket at NProc 8, where
// processors 4-7 share nodes 0-3 with processors 0-3, so a reference from
// processor 4 to node 0 is local. Every reference must be counted in its
// class, and user time must equal the cost model's price of each
// (processor, frame) plus the link waits the topology reports.
func TestChargeAndCount(t *testing.T) {
	type ref struct {
		proc  int
		node  int // the frame's node, or -1 for global memory
		store bool
	}
	for _, tc := range []struct {
		name     string
		topology string
		nproc    int
		threads  [][]ref // one script per thread
		want     map[int]RefStats
	}{
		{
			name: "ace", nproc: 2,
			threads: [][]ref{{{0, -1, false}, {0, -1, true}, {1, 1, false}, {1, 1, true}, {0, 1, false}}},
			want: map[int]RefStats{
				0: {GlobalFetch: 1, GlobalStore: 1, RemoteFetch: 1},
				1: {LocalFetch: 1, LocalStore: 1},
			},
		},
		{
			// The later threads start at time 0, behind the first one's
			// transfer on link node0-node1, so their first references wait.
			name: "4socket", topology: "4socket", nproc: 8,
			threads: [][]ref{
				{{4, 0, false}, {4, 0, true}, {4, 1, false}, {4, -1, true}},
				{{0, 1, false}, {0, 0, false}, {5, 1, true}, {5, 0, false}},
				{{1, 0, true}},
			},
			want: map[int]RefStats{
				0: {LocalFetch: 1, RemoteFetch: 1},
				1: {RemoteStore: 1},
				4: {LocalFetch: 1, LocalStore: 1, RemoteFetch: 1, GlobalStore: 1},
				5: {LocalStore: 1, RemoteFetch: 1},
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.NProc, cfg.Topology = tc.nproc, tc.topology
			m := MustMachine(cfg)
			frame := func(node int) *mem.Frame {
				pool := m.Memory().Global()
				if node >= 0 {
					pool = m.Memory().Local(node)
				}
				f, err := pool.Alloc()
				if err != nil {
					t.Fatal(err)
				}
				return f
			}
			frames := map[int]*mem.Frame{-1: frame(-1)}
			for n := 0; n < m.NNodes(); n++ {
				frames[n] = frame(n)
			}
			var wantTime sim.Time
			var nrefs uint64
			for i, script := range tc.threads {
				for _, r := range script {
					if r.store {
						wantTime += m.Cost().StoreCost(frames[r.node], r.proc)
					} else {
						wantTime += m.Cost().FetchCost(frames[r.node], r.proc)
					}
					nrefs++
				}
				m.Engine().Spawn(fmt.Sprintf("t%d", i), 0, func(th *sim.Thread) {
					for _, r := range script {
						if r.store {
							m.ChargeStore(th, r.proc, frames[r.node])
						} else {
							m.ChargeFetch(th, r.proc, frames[r.node])
						}
					}
				})
			}
			if err := m.Engine().Run(); err != nil {
				t.Fatal(err)
			}
			var local, remote uint64
			for p := 0; p < m.NProc(); p++ {
				if got := m.Proc(p).Refs(); got != tc.want[p] {
					t.Errorf("proc%d refs = %+v, want %+v", p, got, tc.want[p])
				}
				local += tc.want[p].LocalFetch + tc.want[p].LocalStore
				remote += tc.want[p].RemoteFetch + tc.want[p].RemoteStore
			}
			tot := m.TotalRefs()
			if tot.Total() != nrefs {
				t.Errorf("total refs = %d, want %d", tot.Total(), nrefs)
			}
			if lf, want := tot.LocalFraction(), float64(local)/float64(nrefs); math.Abs(lf-want) > 1e-9 {
				t.Errorf("local fraction = %v, want %v", lf, want)
			}
			var waited sim.Time
			var xfers uint64
			for _, ls := range m.Topo().LinkStats() {
				waited += ls.Waited
				xfers += ls.Xfers
			}
			if tc.topology != "" && (waited == 0 || xfers < remote) {
				t.Errorf("%d link transfers waited %v for %d remote references; want one transfer each and some wait", xfers, waited, remote)
			}
			if got := m.Engine().TotalUserTime(); got != wantTime+waited {
				t.Errorf("user time = %v, want %v of references + %v of link waits", got, wantTime, waited)
			}
		})
	}
}

func TestLocalFractionEmpty(t *testing.T) {
	var r RefStats
	if r.LocalFraction() != 0 {
		t.Error("empty stats should report 0")
	}
}

func TestTopology(t *testing.T) {
	m := MustMachine(DefaultConfig())
	top := m.Topology()
	for _, want := range []string{"cpu0", "cpu6", "IPC bus", "global memory", "Figure 1"} {
		if !strings.Contains(top, want) {
			t.Errorf("topology missing %q:\n%s", want, top)
		}
	}
}

func TestTotalFaults(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NProc = 2
	m := MustMachine(cfg)
	m.Proc(0).Faults = 3
	m.Proc(1).Faults = 4
	if m.TotalFaults() != 7 {
		t.Errorf("TotalFaults = %d", m.TotalFaults())
	}
}
