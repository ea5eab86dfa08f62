package ace

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"

	"numasim/internal/mem"
	"numasim/internal/sim"
)

func TestDefaultCostModelRatios(t *testing.T) {
	// §2.2: global is 2.3x slower than local on fetches, 1.7x on stores,
	// and about 2x for a mix with 45% stores (E13 in DESIGN.md).
	spec, err := SpecForConfig(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	local, global := spec.Home(0), spec.NNodes()
	fetch := float64(spec.FetchLatency(0, global)) / float64(spec.FetchLatency(0, local))
	if math.Abs(fetch-2.3) > 0.05 {
		t.Errorf("fetch ratio = %.2f, want ~2.3", fetch)
	}
	store := float64(spec.StoreLatency(0, global)) / float64(spec.StoreLatency(0, local))
	if math.Abs(store-1.7) > 0.05 {
		t.Errorf("store ratio = %.2f, want ~1.7", store)
	}
	if pure := spec.GOverL(0); pure != 1500.0/650.0 {
		t.Errorf("fetch-only G/L = %v, want 1500/650", pure)
	}
	if mixed := spec.GOverL(0.45); math.Abs(mixed-2.0) > 0.1 {
		t.Errorf("mixed G/L = %.2f, want ~2.0", mixed)
	}
}

// noFrame names the missing side of a page transfer: a zero-fill or a
// pagein has no source frame, a pageout no destination frame.
const noFrame = -2

// allocFrame takes a frame from node's local memory, from global memory
// when node is -1, or none when node is noFrame.
func allocFrame(t *testing.T, m *Machine, node int) *mem.Frame {
	t.Helper()
	if node == noFrame {
		return nil
	}
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

// sysCharge builds a fresh machine from cfg, so no link is busy, runs
// charge on one thread and returns the system time it cost.
func sysCharge(t *testing.T, cfg Config, charge func(m *Machine, th *sim.Thread)) sim.Time {
	t.Helper()
	m := MustMachine(cfg)
	m.Engine().Spawn("charge", 0, func(th *sim.Thread) { charge(m, th) })
	if err := m.Engine().Run(); err != nil {
		t.Fatal(err)
	}
	return m.Engine().TotalSysTime()
}

// TestCopyZeroCost: on the ACE a page copy costs, per word, the
// published fetch latency of its source plus the store latency of its
// destination; a zero-fill or a pagein the store latency of its
// destination; and a pageout the fetch latency of its source.
func TestCopyZeroCost(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NProc, cfg.GlobalFrames, cfg.LocalFrames = 2, 4, 4
	const ns = sim.Nanosecond
	pageCost := func(src, dst int) sim.Time {
		return sysCharge(t, cfg, func(m *Machine, th *sim.Thread) {
			m.ChargePageSys(th, 0, allocFrame(t, m, src), allocFrame(t, m, dst))
		})
	}
	for _, c := range []struct {
		name      string
		got, want sim.Time
	}{
		{"global to local", pageCost(-1, 0), 1024 * (1500*ns + 840*ns)},
		{"local to global", pageCost(0, -1), 1024 * (650*ns + 1400*ns)},
		{"remote to local", pageCost(1, 0), 1024 * (1800*ns + 840*ns)},
		{"zero-fill local", pageCost(noFrame, 0), 1024 * 840 * ns},
		{"pageout from global", pageCost(-1, noFrame), 1024 * 1500 * ns},
		{"pagein to global", pageCost(noFrame, -1), 1024 * 1400 * ns},
	} {
		if c.got != c.want {
			t.Errorf("%s on cpu0 = %v, want %v", c.name, c.got, c.want)
		}
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
		if id := m.Proc(i).Resource().ID; id != i {
			t.Errorf("proc %d has id %d", i, id)
		}
		if got, want := m.Memory().Local(i).Name(), fmt.Sprintf("local memory of node%d", i); got != want {
			t.Errorf("pool %d is %q, want %q", i, got, want)
		}
	}
	if m.Engine() == nil {
		t.Error("nil engine")
	}
	// State dumps print the resource names, past the name table too.
	cfg.NProc, cfg.Topology = 70, "4socket"
	m = MustMachine(cfg)
	for i := 0; i < cfg.NProc; i++ {
		if r := m.Proc(i).Resource(); r.Name != fmt.Sprintf("cpu%d", i) || r.ID != i {
			t.Errorf("proc %d's resource is %q, id %d", i, r.Name, r.ID)
		}
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

// TestNewMachineCostIsIndependentOfMemorySize: frame records are made on
// first allocation, so building a machine allocates the same bytes at
// 2^18 frames per pool as at 2,048.
func TestNewMachineCostIsIndependentOfMemorySize(t *testing.T) {
	build := func(t *testing.T, topo string, frames int) uint64 {
		t.Helper()
		cfg := DefaultConfig()
		cfg.NProc, cfg.Topology = 4, topo
		cfg.GlobalFrames, cfg.LocalFrames = frames, frames
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		m, err := NewMachine(cfg)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		runtime.KeepAlive(m)
		return after.TotalAlloc - before.TotalAlloc
	}
	for _, topo := range []string{"ace", "4socket", "mesh8"} {
		t.Run(topo, func(t *testing.T) {
			// A shape's first build also builds its shared spec.
			build(t, topo, 2048)
			small, large := build(t, topo, 2048), build(t, topo, 1<<18)
			if d := int64(large) - int64(small); d > 1024 || d < -1024 {
				t.Errorf("NewMachine allocated %d bytes at 2^18 frames, %d at 2048; want within 1 KiB", large, small)
			}
		})
	}
}

// TestNewMachineAllocsAreFixed: once a shape's spec is built, building a
// machine of that shape makes the same few allocations at any processor
// count, so nothing is allocated per processor or per node.
func TestNewMachineAllocsAreFixed(t *testing.T) {
	for _, topo := range []string{"ace", "4socket", "mesh8"} {
		t.Run(topo, func(t *testing.T) {
			var counts []float64
			for _, nproc := range []int{1, 4, 8} {
				cfg := DefaultConfig()
				cfg.NProc, cfg.Topology = nproc, topo
				MustMachine(cfg)
				counts = append(counts, testing.AllocsPerRun(20, func() { MustMachine(cfg) }))
			}
			if counts[0] > 12 || counts[1] != counts[0] || counts[2] != counts[0] {
				t.Errorf("NewMachine made %v allocations at 1, 4 and 8 processors; want one count, at most 12", counts)
			}
		})
	}
}

func TestVPNAndOffset(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PageSize = 4096
	m := MustMachine(cfg)
	if m.PageShift() != 12 {
		t.Errorf("PageShift = %d", m.PageShift())
	}
	if vpn := uint32(0x12345) >> m.PageShift(); vpn != 0x12 {
		t.Errorf("VPN = %#x", vpn)
	}
	if off := 0x12345 & (m.PageSize() - 1); off != 0x345 {
		t.Errorf("page offset = %#x", off)
	}
}

// TestChargeAndCount charges scripted references on two machines: the ACE,
// where node and processor coincide, and 4socket at NProc 8, where
// processors 4-7 share nodes 0-3 with processors 0-3, so a reference from
// processor 4 to node 0 is local. Every reference must be counted in its
// class, and user time must equal the spec's latency for each
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
			frames := map[int]*mem.Frame{-1: allocFrame(t, m, -1)}
			for n := 0; n < m.NNodes(); n++ {
				frames[n] = allocFrame(t, m, n)
			}
			spec := m.Spec()
			var wantTime sim.Time
			var nrefs uint64
			for i, script := range tc.threads {
				for _, r := range script {
					if r.store {
						wantTime += spec.StoreLatency(r.proc, spec.Col(r.node))
					} else {
						wantTime += spec.FetchLatency(r.proc, spec.Col(r.node))
					}
					nrefs++
				}
				m.Engine().Spawn(fmt.Sprintf("t%d", i), 0, func(th *sim.Thread) {
					for _, r := range script {
						// Charge as the reference path does: the row, then
						// the link when the row reports a routed column.
						charge := m.Proc(r.proc).Row().Fetch
						if r.store {
							charge = m.Proc(r.proc).Row().Store
						}
						if f := frames[r.node]; charge(th, f) {
							m.ChargeLink(th, r.proc, f)
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
