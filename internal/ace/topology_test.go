package ace

import (
	"testing"

	"numasim/internal/sim"
	"numasim/internal/topology"
)

// TestCopyZeroChargesFromSpec: on every registered topology, a page copy
// and a zero-fill cost PageSize/4 words at the spec's latencies, for a
// local, a remote and a global frame, whichever side of the copy the
// frame is on. The charging processor's home node is the other side.
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
			words := sim.Time(cfg.PageSize / 4)
			for _, c := range []struct {
				kind string
				node int
			}{{"local", home}, {"remote", spec.Ranked(home)[1]}, {"global", -1}} {
				col, homeCol := spec.Col(c.node), spec.Col(home)
				zero := sysCharge(t, cfg, func(m *Machine, th *sim.Thread) {
					m.ChargeZeroSys(th, allocFrame(t, m, c.node), proc)
				})
				if want := words * spec.StoreLatency(proc, col); zero != want {
					t.Errorf("zero-fill %s frame = %v, want %v", c.kind, zero, want)
				}
				in := sysCharge(t, cfg, func(m *Machine, th *sim.Thread) {
					m.ChargeCopySys(th, allocFrame(t, m, c.node), allocFrame(t, m, home), proc)
				})
				if want := words * (spec.FetchLatency(proc, col) + spec.StoreLatency(proc, homeCol)); in != want {
					t.Errorf("copy from %s frame = %v, want %v", c.kind, in, want)
				}
				out := sysCharge(t, cfg, func(m *Machine, th *sim.Thread) {
					m.ChargeCopySys(th, allocFrame(t, m, home), allocFrame(t, m, c.node), proc)
				})
				if want := words * (spec.FetchLatency(proc, homeCol) + spec.StoreLatency(proc, col)); out != want {
					t.Errorf("copy to %s frame = %v, want %v", c.kind, out, want)
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
		if spec.NNodes() != 4 || spec.Contended() {
			t.Errorf("topology %q: %d nodes contended=%v, want the 4-node uncontended ACE", name, spec.NNodes(), spec.Contended())
		}
	}
	cfg.Topology = "4socket"
	spec, err := SpecForConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if spec.NNodes() != 4 || !spec.Contended() {
		t.Errorf("4socket: %d nodes contended=%v", spec.NNodes(), spec.Contended())
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
	if m.NNodes() != 4 || m.Memory().NProc() != 4 {
		t.Errorf("4socket machine: %d nodes, %d local pools", m.NNodes(), m.Memory().NProc())
	}
	for p := 0; p < 6; p++ {
		if got, want := m.Home(p), p%4; got != want {
			t.Errorf("Home(%d) = %d, want %d", p, got, want)
		}
	}
	if got := m.NodeProcs(1); len(got) != 2 || got[0] != 1 || got[1] != 5 {
		t.Errorf("NodeProcs(1) = %v, want [1 5]", got)
	}
	if m.Topo() == nil || m.Topo().Spec() != m.Spec() {
		t.Error("machine runtime topology does not wrap its spec")
	}
}
