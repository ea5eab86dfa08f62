package ace

import (
	"math"
	"testing"

	"numasim/internal/mem"
	"numasim/internal/topology"
)

// bindACE returns the default cost model bound to the default ACE spec.
func bindACE(t *testing.T, nproc int) (CostModel, *topology.Spec) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.NProc = nproc
	spec, err := SpecForConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := cfg.Cost
	c.Bind(spec)
	return c, spec
}

// TestBoundCostsEqualPublishedConstants: routing FetchCost/StoreCost
// through the ACE latency matrix yields exactly the Local/Global/Remote
// constants the unbound model charges — the two-level machine is a derived
// special case, not separate arithmetic.
func TestBoundCostsEqualPublishedConstants(t *testing.T) {
	const nproc = 4
	bound, _ := bindACE(t, nproc)
	unbound := DefaultCostModel()
	m := mem.NewMemory(nproc, 8, 8, 4096)
	alloc := func(p *mem.Pool) *mem.Frame {
		f, err := p.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	frames := []*mem.Frame{alloc(m.Global())}
	for n := 0; n < nproc; n++ {
		frames = append(frames, alloc(m.Local(n)))
	}
	for proc := 0; proc < nproc; proc++ {
		for _, f := range frames {
			if got, want := bound.FetchCost(f, proc), unbound.FetchCost(f, proc); got != want {
				t.Errorf("fetch cpu%d frame(proc %d): bound %v, unbound %v", proc, f.Proc(), got, want)
			}
			if got, want := bound.StoreCost(f, proc), unbound.StoreCost(f, proc); got != want {
				t.Errorf("store cpu%d frame(proc %d): bound %v, unbound %v", proc, f.Proc(), got, want)
			}
			if got, want := bound.CopyCost(frames[0], f, proc, 4096), unbound.CopyCost(frames[0], f, proc, 4096); got != want {
				t.Errorf("copy cpu%d -> frame(proc %d): bound %v, unbound %v", proc, f.Proc(), got, want)
			}
		}
	}
}

// TestGOverLBoundMatchesUnbound: the model ratio the evaluator feeds into
// the paper's equations is identical whether read from the matrix or the
// constants.
func TestGOverLBoundMatchesUnbound(t *testing.T) {
	bound, _ := bindACE(t, 7)
	unbound := DefaultCostModel()
	for _, frac := range []float64{0, 0.45, 1} {
		if got, want := bound.GOverL(frac), unbound.GOverL(frac); math.Abs(got-want) > 1e-12 {
			t.Errorf("GOverL(%.2f): bound %v, unbound %v", frac, got, want)
		}
	}
	if gl := bound.GOverL(0); math.Abs(gl-1500.0/650.0) > 1e-12 {
		t.Errorf("fetch-only G/L = %v, want 1500/650", gl)
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
