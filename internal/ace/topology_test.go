package ace

import (
	"testing"

	"numasim/internal/sim"
	"numasim/internal/topology"
)

// TestCopyZeroChargesFromSpec: on every registered topology, a page copy,
// a zero-fill, a pageout and a pagein cost PageSize/4 words at the spec's
// latencies, for a local, a remote and a global frame, whichever side of
// the transfer the frame is on. The other side of a copy is the charging
// processor's home node; a zero-fill or a pagein stores a word to the
// frame, and a pageout fetches one.
func TestCopyZeroChargesFromSpec(t *testing.T) {
	for _, name := range topology.Names() {
		t.Run(name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.NProc, cfg.Topology = 4, name
			cfg.GlobalFrames, cfg.LocalFrames = 4, 4
			spec, err := SpecForConfig(cfg)
			if err != nil {
				t.Fatal(err)
			}
			const proc = 1
			home := spec.Home(proc)
			remote := topology.New(spec).Nearest(home, func(int) bool { return true })
			words := sim.Time(cfg.PageSize / 4)
			for _, c := range []struct {
				kind string
				node int
			}{{"local", home}, {"remote", remote}, {"global", -1}} {
				col, homeCol := spec.Col(c.node), spec.Col(home)
				charge := func(src, dst int) sim.Time {
					return sysCharge(t, cfg, func(m *Machine, th *sim.Thread) {
						m.ChargePageSys(th, proc, allocFrame(t, m, src), allocFrame(t, m, dst))
					})
				}
				fetch, store := spec.FetchLatency(proc, col), spec.StoreLatency(proc, col)
				for _, x := range []struct {
					op        string
					got, want sim.Time
				}{
					{"zero-fill or pagein to", charge(noFrame, c.node), words * store},
					{"pageout from", charge(c.node, noFrame), words * fetch},
					{"copy from", charge(c.node, home), words * (fetch + spec.StoreLatency(proc, homeCol))},
					{"copy to", charge(home, c.node), words * (spec.FetchLatency(proc, homeCol) + store)},
				} {
					if x.got != x.want {
						t.Errorf("%s %s frame = %v, want %v", x.op, c.kind, x.got, x.want)
					}
				}
			}
		})
	}
}

// TestRowRoutedMatchesSpec: every processor's charge row routes exactly
// the columns topology.Spec.Routed names, on every registered topology at
// 1–8 processors.
func TestRowRoutedMatchesSpec(t *testing.T) {
	for _, name := range topology.Names() {
		for nproc := 1; nproc <= 8; nproc++ {
			cfg := DefaultConfig()
			cfg.NProc, cfg.Topology = nproc, name
			cfg.GlobalFrames, cfg.LocalFrames = 4, 4
			m := MustMachine(cfg)
			spec := m.Spec()
			for p := 0; p < nproc; p++ {
				for col, c := range m.Proc(p).Row() {
					if want := spec.Routed(p, spec.Col(col-1)); c.routed != want {
						t.Errorf("%s/%d: cpu%d row column %d routed = %v, want %v", name, nproc, p, col, c.routed, want)
					}
				}
			}
		}
	}
}

// TestSpecForConfigShapes: "" and "ace" produce the two-level spec, the
// registered names produce their shapes, Topo overrides everything, and a
// processor-count mismatch is rejected by NewMachine.
func TestSpecForConfigShapes(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NProc = 4
	for _, name := range []string{"", "ace"} {
		cfg.Topology = name
		spec, err := SpecForConfig(cfg)
		if err != nil {
			t.Fatalf("topology %q: %v", name, err)
		}
		if spec.NNodes() != 4 || spec.Routed(0, 1) {
			t.Errorf("topology %q: %d nodes routed=%v, want the 4-node uncontended ACE", name, spec.NNodes(), spec.Routed(0, 1))
		}
	}
	cfg.Topology = "4socket"
	spec, err := SpecForConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if spec.NNodes() != 4 || !spec.Routed(0, 1) {
		t.Errorf("4socket: %d nodes routed=%v", spec.NNodes(), spec.Routed(0, 1))
	}
	override, err := topology.Mesh8(4)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Topo = override
	if spec, err = SpecForConfig(cfg); err != nil || spec != override {
		t.Errorf("Topo override not honored: %v, %v", spec, err)
	}
	// A spec whose processor count disagrees with the config must not build.
	bad := DefaultConfig()
	bad.NProc = 3
	wrong, err := topology.Mesh8(5)
	if err != nil {
		t.Fatal(err)
	}
	bad.Topo = wrong
	if _, err := NewMachine(bad); err == nil {
		t.Error("NewMachine accepted a spec with a mismatched processor count")
	}
}

// TestMachineTopologyAccessors: Home/NNodes/NodeProcs reflect the spec and
// the per-node memory pools match the node count.
func TestMachineTopologyAccessors(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NProc = 6
	cfg.GlobalFrames, cfg.LocalFrames = 64, 16
	cfg.Topology = "4socket"
	m, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.NNodes() != 4 || m.Memory().Local(3).Name() != "local memory of node3" {
		t.Errorf("4socket machine: %d nodes, last local pool %q", m.NNodes(), m.Memory().Local(3).Name())
	}
	for p := 0; p < 6; p++ {
		if got, want := m.Home(p), p%4; got != want {
			t.Errorf("Home(%d) = %d, want %d", p, got, want)
		}
	}
	if got := m.NodeProcs(1); len(got) != 2 || got[0] != 1 || got[1] != 5 {
		t.Errorf("NodeProcs(1) = %v, want [1 5]", got)
	}
	if m.Topo() == nil || len(m.Topo().LinkStats()) != 6 {
		t.Error("machine runtime topology does not carry 4socket's six links")
	}
}
