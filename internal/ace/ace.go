// Package ace models the hardware of the IBM ACE Multiprocessor Workstation
// (§2.2 of the paper): a set of processor modules, each with a ROMP-class
// CPU, a Rosetta-class MMU and a local memory, connected to one or more
// global memories by the Inter-Processor Communication bus.
//
// The model is a timing model, not an ISA emulator. Applications execute
// real Go code for their computations and charge virtual time for each
// simulated memory reference and for counted instruction work, using the
// latencies the paper measured (32-bit local fetch 0.65µs / store 0.84µs,
// global fetch 1.5µs / store 1.4µs), which the topology package's ACE
// spec holds.
package ace

import (
	"fmt"

	"numasim/internal/mem"
	"numasim/internal/mmu"
	"numasim/internal/sim"
	"numasim/internal/simtrace"
	"numasim/internal/topology"
)

// CostModel gives the virtual-time cost of counted instruction work and
// kernel operations. Memory latencies are not priced here: the machine's
// topology spec holds them, and each processor's charge row prices every
// reference, page copy and zero-fill from that spec.
type CostModel struct {
	// Instruction costs. The ROMP has no hardware multiply/divide and no
	// floating point unit, which the paper leans on repeatedly ("division
	// is expensive on the ACE", "the high cost of integer multiplication").
	Instr sim.Time // simple register/ALU instruction
	Mul   sim.Time // integer multiply
	Div   sim.Time // integer divide
	FAdd  sim.Time // floating add/sub
	FMul  sim.Time // floating multiply
	FDiv  sim.Time // floating divide

	// Kernel overheads, charged as system time.
	FaultBase sim.Time // trap entry + machine-independent VM fault handling
	NUMAOp    sim.Time // one NUMA-manager decision/bookkeeping step
	MMUOp     sim.Time // dropping or changing one translation, possibly cross-CPU
}

// DefaultCostModel returns ROMP-plausible instruction costs and kernel
// overheads.
func DefaultCostModel() CostModel {
	return CostModel{
		Instr: 500 * sim.Nanosecond, // ~2 MIPS
		Mul:   5 * sim.Microsecond,  // software multiply
		Div:   15 * sim.Microsecond, // software divide
		FAdd:  1 * sim.Microsecond,  // FPA-assisted floating point
		FMul:  1500 * sim.Nanosecond,
		FDiv:  4 * sim.Microsecond,

		FaultBase: 500 * sim.Microsecond,
		NUMAOp:    50 * sim.Microsecond,
		MMUOp:     10 * sim.Microsecond,
	}
}

// Config describes one machine instance.
type Config struct {
	NProc        int      // processor modules (the ACE backplane allows up to 8)
	GlobalFrames int      // frames of global memory
	LocalFrames  int      // frames of local memory per node
	PageSize     int      // bytes; power of two
	Quantum      sim.Time // scheduling time slice between involuntary yields
	Cost         CostModel

	// Topology selects a machine shape by name (see topology.Names).
	// Empty or "ace" builds the paper's two-level ACE: one node per
	// processor, uncontended.
	Topology string
	// Topo, when non-nil, overrides Topology with an explicit spec (tests
	// and the fuzz suite build random machines this way).
	Topo *topology.Spec
}

// SpecForConfig resolves the configuration's topology spec: the Topo
// override if set, otherwise the shape named by Topology.
func SpecForConfig(cfg Config) (*topology.Spec, error) {
	if cfg.Topo != nil {
		return cfg.Topo, nil
	}
	return topology.ByName(cfg.Topology, cfg.NProc)
}

// DefaultConfig returns a machine comparable to the paper's measurement
// configuration: 7 processors (Table 4), 16 MB of global memory and 8 MB of
// local memory per module, 4 KiB pages.
func DefaultConfig() Config {
	return Config{
		NProc:        7,
		GlobalFrames: 16 << 20 >> 12, // 16 MB
		LocalFrames:  8 << 20 >> 12,  // 8 MB per processor
		PageSize:     4096,
		Quantum:      200 * sim.Microsecond,
		Cost:         DefaultCostModel(),
	}
}

// MinLocalFrames is the smallest workable local memory per processor:
// one frame to hold an incoming copy and one for the reclaimer to turn
// over. Below it the manager could never place anything locally.
const MinLocalFrames = 2

// Validate checks the configuration for consistency.
func (c *Config) Validate() error {
	if c.NProc < 1 {
		return fmt.Errorf("ace: NProc %d < 1", c.NProc)
	}
	if c.PageSize < 16 || c.PageSize&(c.PageSize-1) != 0 {
		return fmt.Errorf("ace: page size %d not a power of two >= 16", c.PageSize)
	}
	if c.GlobalFrames < 1 {
		return fmt.Errorf("ace: GlobalFrames %d < 1", c.GlobalFrames)
	}
	if c.LocalFrames < MinLocalFrames {
		return fmt.Errorf("ace: LocalFrames %d below working minimum %d", c.LocalFrames, MinLocalFrames)
	}
	if c.Quantum <= 0 {
		return fmt.Errorf("ace: quantum %v <= 0", c.Quantum)
	}
	return nil
}

// RefStats counts memory references by destination, per processor. The
// paper's α is estimated from run times; these true counts let the harness
// cross-check the timing-derived estimate.
type RefStats struct {
	LocalFetch  uint64
	LocalStore  uint64
	GlobalFetch uint64
	GlobalStore uint64
	RemoteFetch uint64
	RemoteStore uint64
}

// Total returns the total number of references.
func (r *RefStats) Total() uint64 {
	return r.LocalFetch + r.LocalStore + r.GlobalFetch + r.GlobalStore + r.RemoteFetch + r.RemoteStore
}

// LocalFraction returns the fraction of references that hit local memory.
func (r *RefStats) LocalFraction() float64 {
	tot := r.Total()
	if tot == 0 {
		return 0
	}
	return float64(r.LocalFetch+r.LocalStore) / float64(tot)
}

// Add accumulates other into r.
func (r *RefStats) Add(other RefStats) {
	r.LocalFetch += other.LocalFetch
	r.LocalStore += other.LocalStore
	r.GlobalFetch += other.GlobalFetch
	r.GlobalStore += other.GlobalStore
	r.RemoteFetch += other.RemoteFetch
	r.RemoteStore += other.RemoteStore
}

// refCol is one column of a processor's charge row: what a 32-bit fetch
// and store from the processor to one memory cost, how many of each the
// processor has made, and whether a transfer to the memory is routed
// over the interconnect (topology.Spec.Routed).
type refCol struct {
	fetch, store    sim.Time
	fetches, stores uint64
	routed          bool
}

// Row is a processor's charge row, indexed by frame node + 1: column 0 is
// global memory, column home+1 the processor's local memory, and every
// other column a remote node. NewMachine fills the costs and routed flags
// once from the machine's spec, so a reference, page copy or zero-fill
// neither looks up its latency nor classifies its destination, and only
// a routed one calls the link model.
type Row []refCol

// Fetch charges th for a 32-bit fetch from frame f at the row's price and
// counts it. It reports whether f's column is routed: only then may the
// fetch also queue on the interconnect, and the caller charges that
// through Machine.ChargeLink. An unrouted fetch is fully priced here.
//
//numalint:hotpath
func (r Row) Fetch(th *sim.Thread, f *mem.Frame) bool {
	c := &r[f.Proc()+1]
	th.Advance(c.fetch)
	c.fetches++
	return c.routed
}

// Store charges th for a 32-bit store to frame f at the row's price and
// counts it. Like Fetch, it reports whether f's column is routed.
//
//numalint:hotpath
func (r Row) Store(th *sim.Thread, f *mem.Frame) bool {
	c := &r[f.Proc()+1]
	th.Advance(c.store)
	c.stores++
	return c.routed
}

// Processor is one ACE processor module.
type Processor struct {
	id   int
	home int
	res  *sim.Resource
	row  Row
	// Faults counts page faults taken on this processor.
	Faults uint64
}

// ID returns the processor number.
func (p *Processor) ID() int { return p.id }

// Resource returns the sim resource representing the CPU's execution unit.
//
//numalint:hotpath
func (p *Processor) Resource() *sim.Resource { return p.res }

// Row returns the processor's charge row. The row is shared, not copied:
// charges through it count in the processor's Refs.
//
//numalint:hotpath
func (p *Processor) Row() Row { return p.row }

// Refs returns the processor's reference counters, classified by charge
// row column: column 0 is global, the home column local, the rest remote.
func (p *Processor) Refs() RefStats {
	var r RefStats
	for col, c := range p.row {
		switch col {
		case 0:
			r.GlobalFetch += c.fetches
			r.GlobalStore += c.stores
		case p.home + 1:
			r.LocalFetch += c.fetches
			r.LocalStore += c.stores
		default:
			r.RemoteFetch += c.fetches
			r.RemoteStore += c.stores
		}
	}
	return r
}

// Machine is an assembled machine: engine, processors, memories and MMUs,
// shaped by a topology spec (the ACE by default).
type Machine struct {
	cfg    Config
	spec   *topology.Spec
	topo   *topology.Topology
	engine *sim.Engine
	procs  []Processor
	memory *mem.Memory
	mmus   []*mmu.MMU
	bus    *simtrace.Bus
}

// NewMachine builds a machine from cfg, reporting invalid configuration
// as an error the caller can propagate. Static, known-good configurations
// (tests, examples) may use MustMachine instead.
func NewMachine(cfg Config) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	spec, err := SpecForConfig(cfg)
	if err != nil {
		return nil, err
	}
	if spec.NProcs() != cfg.NProc {
		return nil, fmt.Errorf("ace: topology %s has %d processors, config has %d", spec.Name(), spec.NProcs(), cfg.NProc)
	}
	m := &Machine{
		cfg:    cfg,
		spec:   spec,
		topo:   topology.New(spec),
		engine: sim.NewEngine(),
		memory: mem.NewMemory(spec.NNodes(), cfg.GlobalFrames, cfg.LocalFrames, cfg.PageSize),
		bus:    simtrace.NewBus(),
	}
	m.engine.Bus = m.bus
	m.procs = make([]Processor, cfg.NProc)
	m.mmus = make([]*mmu.MMU, cfg.NProc)
	// Every processor's charge row is a slice of one allocation.
	ncol := spec.NNodes() + 1
	rows := make(Row, cfg.NProc*ncol)
	for i := range m.procs {
		row := rows[i*ncol : (i+1)*ncol : (i+1)*ncol]
		for col := range row {
			// Column col holds node col-1; spec.Col maps column 0's -1
			// (mem's node for global frames) to the interleave column.
			sc := spec.Col(col - 1)
			row[col] = refCol{fetch: spec.FetchLatency(i, sc), store: spec.StoreLatency(i, sc), routed: spec.Routed(i, sc)}
		}
		m.procs[i] = Processor{id: i, home: spec.Home(i), res: &sim.Resource{Name: fmt.Sprintf("cpu%d", i), ID: i}, row: row}
		m.mmus[i] = mmu.New(i)
	}
	return m, nil
}

// MustMachine builds a machine from a configuration that is known to be
// valid, panicking otherwise. For tests and static setups only; code with
// an error path should call NewMachine.
func MustMachine(cfg Config) *Machine {
	m, err := NewMachine(cfg)
	if err != nil {
		panic(err)
	}
	return m
}

// Bus returns the machine's trace-event bus. The bus always exists; it is
// inert (and nearly free) until a sink is attached.
//
//numalint:hotpath
func (m *Machine) Bus() *simtrace.Bus { return m.bus }

// AttachSink connects a trace sink to the machine's bus; every
// instrumented layer (engine, kernel, NUMA manager, pmap, scheduler)
// starts emitting to it.
func (m *Machine) AttachSink(s simtrace.Sink) { m.bus.Attach(s) }

// Config returns the machine configuration.
func (m *Machine) Config() Config { return m.cfg }

// Cost returns the machine's cost model.
//
//numalint:hotpath
func (m *Machine) Cost() *CostModel { return &m.cfg.Cost }

// PageSize reports the machine page size in bytes.
//
//numalint:hotpath
func (m *Machine) PageSize() int { return m.cfg.PageSize }

// Engine returns the machine's simulation engine.
func (m *Machine) Engine() *sim.Engine { return m.engine }

// NProc reports the number of processors.
//
//numalint:hotpath
func (m *Machine) NProc() int { return len(m.procs) }

// NNodes reports the number of memory nodes. On the ACE every processor
// is its own node; other topologies home several processors per node.
//
//numalint:hotpath
func (m *Machine) NNodes() int { return m.spec.NNodes() }

// Home reports the node processor proc's local memory lives on.
//
//numalint:hotpath
func (m *Machine) Home(proc int) int { return m.spec.Home(proc) }

// NodeProcs returns the processors homed on node (the spec's own slice;
// do not mutate).
//
//numalint:hotpath
func (m *Machine) NodeProcs(node int) []int { return m.spec.NodeProcs(node) }

// Spec returns the machine's immutable topology spec.
func (m *Machine) Spec() *topology.Spec { return m.spec }

// Topo returns the machine's runtime topology state (link token buckets
// and contention counters).
//
//numalint:hotpath
func (m *Machine) Topo() *topology.Topology { return m.topo }

// Proc returns processor i.
//
//numalint:hotpath
func (m *Machine) Proc(i int) *Processor { return &m.procs[i] }

// Memory returns the machine's physical memory.
//
//numalint:hotpath
func (m *Machine) Memory() *mem.Memory { return m.memory }

// MMU returns processor i's MMU.
//
//numalint:hotpath
func (m *Machine) MMU(i int) *mmu.MMU { return m.mmus[i] }

// PageShift returns log2 of the page size.
//
//numalint:hotpath
func (m *Machine) PageShift() uint {
	s := uint(0)
	for 1<<s < m.cfg.PageSize {
		s++
	}
	return s
}

// VPN returns the virtual page number of va.
//
//numalint:hotpath
func (m *Machine) VPN(va uint32) uint32 { return va >> m.PageShift() }

// PageOff returns va's offset within its page.
//
//numalint:hotpath
func (m *Machine) PageOff(va uint32) int { return int(va) & (m.cfg.PageSize - 1) }

// ChargeFetch charges th for a 32-bit fetch from frame f by processor proc
// and counts it, both in proc's charge row. A fetch over a routed column
// also pays any queueing delay on the interconnect route to f's node.
//
//numalint:hotpath
func (m *Machine) ChargeFetch(th *sim.Thread, proc int, f *mem.Frame) {
	if m.procs[proc].row.Fetch(th, f) {
		m.ChargeLink(th, proc, f)
	}
}

// ChargeStore charges th for a 32-bit store to frame f by processor proc
// and counts it, both in proc's charge row. A store over a routed column
// also pays any queueing delay on the interconnect route to f's node.
//
//numalint:hotpath
func (m *Machine) ChargeStore(th *sim.Thread, proc int, f *mem.Frame) {
	if m.procs[proc].row.Store(th, f) {
		m.ChargeLink(th, proc, f)
	}
}

// ChargeLink charges th, as user time, for the queueing delay a 32-bit
// reference by processor proc to frame f waits on the interconnect. It
// is the link half of a reference whose row charge (Row.Fetch or
// Row.Store) reported a routed column; the row has already priced and
// counted the reference itself.
//
//numalint:hotpath
func (m *Machine) ChargeLink(th *sim.Thread, proc int, f *mem.Frame) {
	m.chargeLink(th, proc, f, 4, false)
}

// chargeLink routes a transfer touching frame f over the interconnect and
// charges th for any queueing delay the busy links imposed — as system
// time for kernel page operations (sys true), user time otherwise. Callers
// call it only for a routed column of proc's charge row: for any other,
// the topology would charge nothing and change nothing.
//
//numalint:hotpath
func (m *Machine) chargeLink(th *sim.Thread, proc int, f *mem.Frame, bytes int, sys bool) {
	wait := m.topo.ChargeTransfer(th.Clock(), proc, m.spec.Col(f.Proc()), bytes)
	if wait == 0 {
		return
	}
	if sys {
		th.AdvanceSys(wait)
	} else {
		th.Advance(wait)
	}
	if m.bus.Enabled() {
		m.bus.Emit(simtrace.Event{
			Kind: simtrace.KindLinkWait, Proc: int32(proc), Thread: int32(th.ID()),
			Time: int64(th.Clock()), Dur: int64(wait), Page: -1, Arg: int64(f.Proc()),
		})
	}
}

// ChargeCopySys charges th, as system time, for processor proc copying a
// full page from src to dst at memory speed (a fetch and a store a word,
// priced from proc's charge row) plus any interconnect queueing delay on
// the two transfers, each over a routed column. All kernel page-copy
// sites (NUMA protocol moves, pmap's physical copy) charge through here
// so contention applies uniformly.
//
//numalint:hotpath
func (m *Machine) ChargeCopySys(th *sim.Thread, src, dst *mem.Frame, proc int) {
	row := m.procs[proc].row
	from, to := &row[src.Proc()+1], &row[dst.Proc()+1]
	th.AdvanceSys(sim.Time(m.cfg.PageSize/4) * (from.fetch + to.store))
	if from.routed {
		m.chargeLink(th, proc, src, m.cfg.PageSize, true)
	}
	if to.routed {
		m.chargeLink(th, proc, dst, m.cfg.PageSize, true)
	}
}

// ChargeZeroSys charges th, as system time, for processor proc
// zero-filling a page, a store per word priced from proc's charge row,
// plus any interconnect queueing delay over a routed column.
//
//numalint:hotpath
func (m *Machine) ChargeZeroSys(th *sim.Thread, dst *mem.Frame, proc int) {
	to := &m.procs[proc].row[dst.Proc()+1]
	th.AdvanceSys(sim.Time(m.cfg.PageSize/4) * to.store)
	if to.routed {
		m.chargeLink(th, proc, dst, m.cfg.PageSize, true)
	}
}

// TotalRefs sums reference statistics across all processors.
func (m *Machine) TotalRefs() RefStats {
	var sum RefStats
	for i := range m.procs {
		sum.Add(m.procs[i].Refs())
	}
	return sum
}

// TotalFaults sums page-fault counts across all processors.
func (m *Machine) TotalFaults() uint64 {
	var sum uint64
	for i := range m.procs {
		sum += m.procs[i].Faults
	}
	return sum
}

// Topology renders the machine's memory architecture: the paper's
// Figure 1 for the ACE, the spec's generic diagram for other shapes.
func (m *Machine) Topology() string {
	if m.spec.Name() != "ace" {
		s := m.spec.Describe()
		s += fmt.Sprintf("\n  memory: %d KB global (interleaved), %d KB local per node\n",
			m.cfg.GlobalFrames*m.cfg.PageSize/1024, m.cfg.LocalFrames*m.cfg.PageSize/1024)
		return s
	}
	s := "ACE memory architecture (paper Figure 1)\n\n"
	for i := range m.procs {
		s += fmt.Sprintf("  cpu%-2d [ROMP-C + Rosetta-C MMU] -- local memory (%d KB)\n",
			i, m.cfg.LocalFrames*m.cfg.PageSize/1024)
	}
	s += fmt.Sprintf("    |\n    +== IPC bus (32-bit, 80 MB/s) == global memory (%d KB)\n",
		m.cfg.GlobalFrames*m.cfg.PageSize/1024)
	sp, home, global := m.spec, m.spec.Home(0), m.spec.NNodes()
	s += fmt.Sprintf("\n  latencies: local fetch %v store %v; global fetch %v store %v\n",
		sp.FetchLatency(0, home), sp.StoreLatency(0, home), sp.FetchLatency(0, global), sp.StoreLatency(0, global))
	return s
}
