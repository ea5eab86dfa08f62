// Package numa implements the paper's primary contribution: the NUMA
// manager, which maintains the consistency of pages cached in local
// memories using a directory-based ownership protocol (§2.3.1), and the
// policy interface through which a NUMA policy directs page placement
// (§2.3.2).
//
// Every logical page is permanently backed by one frame of global memory
// and may additionally be cached in at most one frame of local memory per
// node (on the paper's ACE every processor is its own node; other
// topologies home several processors on one node and those processors
// share the node's copy). A logical page is in one of three states:
//
//   - read-only: replicated in zero or more local memories, all mappings
//     read-only; the global frame holds the authoritative contents.
//   - local-writable: one local memory holds the (possibly dirty)
//     authoritative copy; the global frame is stale.
//   - global-writable: no local copies; everybody accesses global memory.
//
// Requests reach the manager from the pmap layer on page faults. For each
// request the policy answers LOCAL or GLOBAL, and the manager performs the
// actions of the paper's Table 1 (reads) or Table 2 (writes): some mix of
// "sync" (copy a dirty local page back to global), "flush" (drop mappings
// and free local copies), "unmap" (drop mappings to the global frame) and
// "copy to local".
package numa

import (
	"fmt"

	"numasim/internal/ace"
	"numasim/internal/mem"
	"numasim/internal/mmu"
	"numasim/internal/sim"
	"numasim/internal/simtrace"
	"numasim/internal/topology"
)

// State is the consistency state of a logical page.
//
//numalint:stateenum
type State int

// Logical page states. The first three are §2.3.1's; Remote realizes the
// §4.4 extension: the page lives permanently in one processor's local
// memory ("home") and every other processor references it remotely.
const (
	ReadOnly State = iota
	LocalWritable
	GlobalWritable
	Remote
)

func (s State) String() string {
	switch s {
	case ReadOnly:
		return "read-only"
	case LocalWritable:
		return "local-writable"
	case GlobalWritable:
		return "global-writable"
	case Remote:
		return "remote"
	default:
		//numalint:coldpath diagnostic formatting for an out-of-range state value
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// Location is a policy's placement answer (§2.3.1: "a single function,
// cache_policy, that takes a logical page and protection and returns a
// location: LOCAL or GLOBAL").
type Location int

// Policy answers. PlaceRemote is the §4.4 extension: place the page in
// its home processor's local memory and let other processors reference it
// remotely. It requires a home pragma on the page (the paper: "we see no
// reasonable way of determining this location without pragmas").
const (
	Local Location = iota
	Global
	PlaceRemote
)

func (l Location) String() string {
	switch l {
	case Local:
		return "LOCAL"
	case Global:
		return "GLOBAL"
	case PlaceRemote:
		return "REMOTE"
	default:
		return fmt.Sprintf("location(%d)", int(l))
	}
}

// ReconsideringPolicy is a Policy that wants pinned (global-writable)
// pages re-presented periodically. Because the manager maps pinned pages
// with full permissions (there is nothing further to learn for the
// paper's policy), a policy that can unpin needs its mappings dropped now
// and then so accesses fault and re-consult it. The manager runs an
// amortized sweep — the moral equivalent of PLATINUM's defrost daemon —
// dropping mappings of pages that have been pinned and unexamined for the
// given interval. NewManager reads the interval once; a non-positive
// interval means no sweep, and the manager then keeps no list of pinned
// pages, as for a policy without the capability.
type ReconsideringPolicy interface {
	Policy
	// ReconsiderInterval is the sweep interval NewManager reads.
	//
	//numalint:hotpath
	ReconsiderInterval() sim.Time
}

// Policy decides whether a page should be placed in local or global memory.
// Implementations live in the policy package; the manager works with any.
type Policy interface {
	// CachePolicy is consulted on every request the manager handles.
	// write reports whether the faulting access was a store; maxProt is the
	// loosest protection the machine-independent VM system permits for the
	// mapping (the paper's first pmap_enter protection argument).
	//
	//numalint:hotpath
	CachePolicy(pg *Page, proc int, write bool, maxProt mmu.Prot) Location
	// Name identifies the policy in reports.
	//
	//numalint:hotpath
	Name() string
}

// Page is the NUMA manager's record for one logical page.
type Page struct {
	id     int64 // manager-unique id, for trace events
	bus    *simtrace.Bus
	global *mem.Frame
	state  State
	owner  int          // node holding the local-writable copy, else -1
	copies []*mem.Frame // per-node local replica, nil when absent

	moves     int  // ownership transfers in response to writes (§2.3.2)
	pinned    bool // placed permanently in global memory by the policy
	lastOwner int  // last node to hold the page local-writable
	needZero  bool // lazy zero-fill still pending (§2.3.1)

	// Virtual-time stamps for time-based policies (e.g. the
	// PLATINUM-style freeze/defrost comparator).
	lastMove    sim.Time
	lastRequest sim.Time

	// everWritten supports the paper's observation that read-only logical
	// pages often hold data that could have been written but never was.
	everWritten bool

	// hint is an application placement pragma (§4.3). Policies may honour
	// or ignore it.
	hint Hint
	// home is the processor named by a HintRemote pragma (§4.4); -1 when
	// unset.
	home int

	// Decaying counters for the adaptive policies (see policyapi.go):
	// heat is the per-node access histogram, moveHeat the decaying
	// analogue of moves, heatEpoch the decay epoch the counters were
	// last shifted to, and pword an opaque 64-bit scratch word owned by
	// the bound policy. Kept on every request; pooled with the record.
	heat      []uint32
	moveHeat  uint32
	heatEpoch uint32
	pword     uint64

	// mgr is the owning manager (set on adoption); slot/gen locate the
	// page in the manager's dense live-page directory (slot -1 after
	// FreePage; gen guards against stale handles once the slot is
	// reused). pinSeen is the auditor's pin-monotonicity shadow: once the
	// auditor has observed the pin bit set, it must stay set until
	// FreePage.
	mgr     *Manager
	slot    int32
	gen     uint32
	pinSeen bool
}

// Hint is an application-supplied placement pragma (§4.3: "pragmas that
// would cause a region of virtual memory to be marked cacheable and placed
// in local memory or marked noncacheable and placed in global memory").
type Hint int

// Placement hints.
const (
	HintNone Hint = iota
	HintCacheable
	HintNoncacheable
	// HintRemote asks for §4.4 remote placement at the page's home
	// processor (set with SetHome).
	HintRemote
)

func (h Hint) String() string {
	switch h {
	case HintNone:
		return "none"
	case HintCacheable:
		return "cacheable"
	case HintNoncacheable:
		return "noncacheable"
	case HintRemote:
		return "remote"
	default:
		return fmt.Sprintf("hint(%d)", int(h))
	}
}

// ID returns the page's manager-unique id, as carried by trace events.
//
//numalint:hotpath
func (p *Page) ID() int64 { return p.id }

// Hint returns the page's placement pragma.
//
//numalint:hotpath
func (p *Page) Hint() Hint { return p.hint }

// SetHint sets the page's placement pragma.
//
//numalint:hotpath
func (p *Page) SetHint(h Hint) { p.hint = h }

// SetHome names the page's home processor for remote placement (§4.4).
//
//numalint:hotpath
func (p *Page) SetHome(proc int) { p.home = proc }

// GlobalFrame returns the page's permanent global-memory frame.
//
//numalint:hotpath
func (p *Page) GlobalFrame() *mem.Frame { return p.global }

// State returns the page's consistency state.
//
//numalint:hotpath
func (p *Page) State() State { return p.state }

// Owner returns the node holding the local-writable copy, or -1. On the
// ACE topology node indices coincide with processor indices.
//
//numalint:api numasim.Page re-exports it beside State and NCopies; the numa, pmap and vm tests read a local-writable page's owner through it
func (p *Page) Owner() int { return p.owner }

// NCopies reports how many local replicas exist.
func (p *Page) NCopies() int {
	n := 0
	for _, c := range p.copies {
		if c != nil {
			n++
		}
	}
	return n
}

// Moves reports how many times the consistency protocol has moved the page
// between processors in response to writes.
//
//numalint:hotpath
func (p *Page) Moves() int { return p.moves }

// LastMoveAt reports the virtual time of the page's most recent ownership
// transfer (zero if it has never moved).
//
//numalint:hotpath
func (p *Page) LastMoveAt() sim.Time { return p.lastMove }

// LastRequestAt reports the virtual time of the request currently being
// (or most recently) handled for this page. Policies may compare it with
// LastMoveAt to reason about recency.
//
//numalint:hotpath
func (p *Page) LastRequestAt() sim.Time { return p.lastRequest }

// Pinned reports whether the page has been placed permanently in global
// memory.
//
//numalint:hotpath
func (p *Page) Pinned() bool { return p.pinned }

// EverWritten reports whether any processor has ever written the page.
//
//numalint:hotpath
func (p *Page) EverWritten() bool { return p.everWritten }

// Authoritative returns the frame currently holding the true contents of
// the page: the owner's local copy for local-writable pages, otherwise the
// global frame.
//
//numalint:hotpath
func (p *Page) Authoritative() *mem.Frame {
	switch p.state {
	case LocalWritable:
		return p.copies[p.owner]
	case Remote:
		return p.copies[p.owner]
	default:
		return p.global
	}
}

// Stats counts NUMA-manager events.
type Stats struct {
	ReadRequests  uint64
	WriteRequests uint64
	Syncs         uint64 // dirty local copies written back to global
	Flushes       uint64 // local copies freed
	Unmaps        uint64 // global-frame mappings dropped
	Copies        uint64 // pages copied into a local memory
	ZeroFills     uint64 // lazy zero-fills performed
	Moves         uint64 // ownership transfers in response to writes
	Pins          uint64 // pages pinned into global memory
	LocalFallback uint64 // LOCAL decisions demoted because local memory was full
	Evictions     uint64 // local copies evicted by the clock reclaimer
	Retries       uint64 // transiently failed local allocations retried after backoff
	ChaosFaults   uint64 // transient local-allocation failures injected
	ChaosDelays   uint64 // page moves delayed by fault injection
	RemotePlaced  uint64 // pages placed at a home processor (§4.4)
	RemoteDemoted uint64 // remote placements revoked by a policy change
	PagesCreated  uint64
	PagesFreed    uint64
	Evacuations   uint64 // page copies moved or dropped off failing nodes
	EvacRetries   uint64 // evacuations that backed off on destination pressure
	EvacFallbacks uint64 // evacuated pages synced to global (no survivor had room)
	NodesFailed   uint64 // nodes taken offline by the failure schedule
	NodesRevived  uint64 // offline nodes returned to service
}

// Injector is the fault-injection hook the NUMA manager consults on the
// pressure paths; internal/chaos implements it. All methods are called
// from the simulation loop with the acting thread's virtual clock, so an
// implementation advancing a seeded PRNG stays deterministic at any host
// parallelism. A nil Injector (the default) injects nothing.
type Injector interface {
	// FailLocalAlloc reports whether one local-frame allocation attempt
	// by proc at virtual time now fails transiently.
	FailLocalAlloc(now sim.Time, proc int) bool
	// MoveDelay returns extra virtual time to charge a page move by proc,
	// or zero.
	MoveDelay(now sim.Time, proc int) sim.Time
	// MaxRetries bounds the manager's retry loop for transient failures.
	MaxRetries() int
	// RetryBackoff returns the virtual-time wait before the zero-based
	// retry attempt.
	RetryBackoff(attempt int) sim.Time
	// Disrupt is consulted once per protocol request; it may panic (crash
	// drill) or return true to make the calling thread stall without
	// advancing virtual time, exercising the engine's stall watchdog.
	Disrupt(now sim.Time, proc int) bool
}

// Manager is the NUMA manager: it owns the consistency protocol for all
// logical pages of one machine.
type Manager struct {
	machine *ace.Machine
	policy  Policy
	stats   Stats

	// policyName is the policy's Name, formatted once in NewManager for
	// the labels of traced decision and hint events.
	policyName string

	// bus is the machine's trace bus; nextPageID numbers pages for its
	// events, and now tracks the virtual time of the request being
	// handled for emission sites that have no thread at hand (page
	// creation, state changes).
	bus        *simtrace.Bus
	nextPageID int64
	now        sim.Time

	// noReplication disables read replication: a read-only page keeps at
	// most one local copy, which migrates to its readers (the pure
	// migration protocol of Li-style systems). Used by the replication
	// ablation; the paper's system always replicates.
	noReplication bool

	// Defrost-daemon state for ReconsideringPolicy (see that type); a
	// non-positive sweepEvery means no sweep.
	sweepEvery sim.Time
	gwPages    []*Page
	lastSweep  sim.Time

	// Capability bindings (see policyapi.go): the policy's advisor
	// interface, asserted once in NewManager so the hot path only
	// nil-checks. spec is the machine's topology, passed to the
	// advisor; heatEpoch is the decay period and curEpoch the latest
	// epoch any request has reached; mover is the scheduler-side
	// co-placement channel installed by SetThreadMover.
	advisor   ThreadAdvisor
	mover     ThreadMover
	spec      *topology.Spec
	heatEpoch sim.Time
	curEpoch  uint32

	// chaos, when non-nil, injects transient local-allocation failures
	// and page-move delays on the pressure paths.
	chaos Injector

	// Degraded-mode state (see evacuate.go): offline is the node
	// quarantine mask (nil until the first FailNode, so healthy runs pay
	// one nil check on the fault path and allocate nothing), offlineSeen
	// the auditor's monotonic-quarantine shadow, and evacQueue the
	// bounded evacuation work list reused across failures.
	offline     []bool
	offlineSeen []bool
	evacQueue   []*Page

	// Clock-reclaimer state, sharded by node: which page's copy occupies
	// each local frame (shards[node].resident[frameIndex]), a
	// second-chance reference bit per frame, and the clock hand. The
	// residency shard is the per-memory index that makes deterministic
	// eviction possible without iterating any map.
	shards []procShard

	// Online-auditor state (see audit.go): the sampling stride and
	// operation counter, the forensic ring snapshot attached to
	// violations, and the dense live-page directory behind AuditAll and
	// the state-dump directory summary.
	auditStride     int
	auditOps        uint64
	auditSweepEvery uint64
	ring            *simtrace.RingSink
	dir             directory

	// freePages recycles Page records: FreePage pushes the retired record
	// and NewPage/AdoptPage pop one instead of allocating, so steady-state
	// page churn (pageout/pagein cycles, task teardown) allocates nothing.
	// freeTag is the single reusable FreePage completion token — cleanup
	// is eager, so at most one tag is ever outstanding per free.
	freePages []*Page
	freeTag   FreeTag
}

// NewManager creates a NUMA manager for machine using the given policy.
func NewManager(machine *ace.Machine, pol Policy) *Manager {
	if pol == nil {
		panic(newViolation(nil, nil, "numa: nil policy"))
	}
	n := &Manager{machine: machine, policy: pol, policyName: pol.Name(), bus: machine.Bus(),
		spec: machine.Spec(), heatEpoch: DefaultHeatEpoch}
	n.advisor, _ = pol.(ThreadAdvisor)
	if r, ok := pol.(ReconsideringPolicy); ok {
		n.sweepEvery = r.ReconsiderInterval()
	}
	machine.Engine().AddDumpSection(n.DumpSection)
	nnodes := machine.NNodes()
	n.shards = make([]procShard, nnodes)
	for p := 0; p < nnodes; p++ {
		size := machine.Memory().Local(p).Size()
		n.shards[p].resident = make([]*Page, size)
		n.shards[p].refbit = make([]bool, size)
	}
	return n
}

// SetChaos installs a fault injector on the manager's pressure paths
// (nil disables injection). Install before the simulation runs.
func (n *Manager) SetChaos(inj Injector) { n.chaos = inj }

// Stats returns a copy of the manager's counters.
func (n *Manager) Stats() Stats { return n.stats }

// SetReplication enables or disables read replication (enabled by
// default). With replication off, read-only pages migrate their single
// local copy between readers instead of replicating.
func (n *Manager) SetReplication(enabled bool) { n.noReplication = !enabled }

// emitAction reports one protocol action, when a sink is attached, as a
// structured KindAction event stamped with the acting thread's clock
// (Tables 1 and 2 are derived from these events). proc is the processor
// the action serves, or -1 for whole-page sweeps.
func (n *Manager) emitAction(th *sim.Thread, pg *Page, proc int, label string) {
	if n.bus.Enabled() {
		n.bus.Emit(simtrace.Event{
			Kind: simtrace.KindAction, Proc: int32(proc), Thread: int32(th.ID()),
			Time: int64(th.Clock()), Page: pg.id, Arg: int64(pg.state), Label: label,
		})
	}
}

// newPageRecord returns a blank Page record, recycling one retired by
// FreePage when available. Every field is at its adoption default: state
// read-only, no owner, no copies, no pragmas.
func (n *Manager) newPageRecord() *Page {
	if k := len(n.freePages); k > 0 {
		pg := n.freePages[k-1]
		n.freePages = n.freePages[:k-1]
		copies := pg.copies
		for i := range copies {
			copies[i] = nil
		}
		heat := pg.heat
		for i := range heat {
			heat[i] = 0
		}
		*pg = Page{copies: copies, heat: heat, owner: -1, lastOwner: -1, home: -1, slot: -1}
		return pg
	}
	return &Page{
		owner:     -1,
		lastOwner: -1,
		home:      -1,
		slot:      -1,
		copies:    make([]*mem.Frame, n.machine.NNodes()),
		heat:      make([]uint32, n.machine.NNodes()),
	}
}

// nodeProc returns a representative processor homed on node (the lowest-
// numbered one), for protocol work initiated on a page rather than by a
// faulting processor. On the ACE it is the node index itself. A node
// with no processors falls back to processor 0.
func (n *Manager) nodeProc(node int) int {
	if ps := n.machine.NodeProcs(node); len(ps) > 0 {
		return ps[0]
	}
	return 0
}

// NewPage allocates a fresh logical page backed by a newly allocated global
// frame. The page starts in the read-only state with no copies and a lazy
// zero-fill pending. It returns mem.ErrNoFrames when global memory is
// exhausted (the VM layer then reclaims via pageout).
func (n *Manager) NewPage() (*Page, error) {
	f, err := n.machine.Memory().Global().Alloc()
	if err != nil {
		return nil, err
	}
	// Model invariant, not a charged operation: a reused frame must not leak
	// the previous page's bytes into the zero-fill semantics. The charged
	// zero-fill happens lazily at first touch (§2.3.1).
	f.Zero()
	pg := n.newPageRecord()
	pg.global = f
	pg.needZero = true
	n.adopt(pg)
	return pg, nil
}

// adopt numbers a new page, hooks it to the trace bus and reports its
// birth. Creation has no thread at hand, so the event carries the time of
// the request the manager most recently handled.
func (n *Manager) adopt(pg *Page) {
	pg.id = n.nextPageID
	n.nextPageID++
	pg.bus = n.bus
	n.register(pg)
	n.stats.PagesCreated++
	if n.bus.Enabled() {
		n.bus.Emit(simtrace.Event{
			Kind: simtrace.KindPageCreated, Proc: -1, Thread: -1,
			Time: int64(n.now), Page: pg.id,
		})
	}
}

// AdoptPage builds a page around existing contents (page-in from backing
// store). The global frame must already hold the page's data; no zero-fill
// is pending. NUMA placement state starts fresh, which is how the paper's
// system reconsiders pinning decisions only across a pageout/pagein cycle
// (§4.3 footnote 4).
func (n *Manager) AdoptPage(global *mem.Frame) *Page {
	pg := n.newPageRecord()
	pg.global = global
	n.adopt(pg)
	return pg
}

// Access handles one request from the pmap layer: processor proc faulted on
// the page with a load (write=false) or store (write=true). It consults the
// policy, performs the actions of Table 1 or Table 2, and returns the frame
// the processor should map together with the strictest protection that
// resolves the fault (the paper's min-protection, §2.3.3).
//
// All protocol costs are charged to th as system time.
//
//numalint:hotpath
func (n *Manager) Access(th *sim.Thread, pg *Page, proc int, write bool, maxProt mmu.Prot) (*mem.Frame, mmu.Prot) {
	if write && !maxProt.CanWrite() {
		panic(n.violation(pg, "numa: write request on non-writable page escaped the VM layer"))
	}
	cost := n.machine.Cost()
	th.AdvanceSys(cost.NUMAOp)
	if write {
		n.stats.WriteRequests++
		pg.everWritten = true
	} else {
		n.stats.ReadRequests++
	}
	pg.lastRequest = th.Clock()
	n.now = th.Clock()
	if n.chaos != nil && n.chaos.Disrupt(th.Clock(), proc) {
		//numalint:coldpath fault injection: a stall drill deliberately wedges the thread
		// Injected stall drill: spin without advancing virtual time until
		// the engine's stall watchdog declares the run livelocked and
		// tears it down (Yield panics an abort signal then).
		for {
			th.Yield()
		}
	}
	n.MaybeSweep(th)

	// The faulting processor's placements land on its home node's local
	// memory (on the ACE the two indices coincide).
	node := n.machine.Home(proc)
	n.observeAccess(pg, node, th.Clock())
	loc := n.policy.CachePolicy(pg, proc, write, maxProt)
	if n.offline != nil {
		//numalint:coldpath degraded mode: the offline mask exists only under a failure schedule
		loc = n.degradeOffline(pg, loc, node)
	}
	if loc == Local && pg.copies[node] == nil && !n.admitLocal(th, pg, node, proc) {
		// Local memory could not yield a frame even after retry and
		// reclaim: fall back to a global placement for this request only
		// (the decision is re-made on the next fault).
		loc = Global
		n.stats.LocalFallback++
	}
	if loc == PlaceRemote {
		// No home pragma, or the home's local memory is exhausted.
		if pg.home < 0 {
			loc = Global
		} else if h := n.machine.Home(pg.home); pg.copies[h] == nil && !n.admitLocal(th, pg, h, proc) {
			loc = Global
		}
	}
	if n.bus.Enabled() {
		n.bus.Emit(simtrace.Event{
			Kind: simtrace.KindDecision, Proc: int32(proc), Thread: int32(th.ID()),
			Time: int64(th.Clock()), Page: pg.id,
			Arg: int64(loc), Arg2: int64(pg.moves), Label: n.policyName,
		})
	}
	// A remote-placed page whose policy answer has changed is demoted
	// first: its home copy is synced back to global memory and flushed.
	if pg.state == Remote && loc != PlaceRemote {
		n.demoteRemote(th, pg, proc)
	}

	var f *mem.Frame
	var prot mmu.Prot
	switch {
	case loc == PlaceRemote:
		f, prot = n.toRemote(th, pg, proc, maxProt)
	case loc == Global:
		f, prot = n.toGlobal(th, pg, proc, node, maxProt)
	case write:
		f, prot = n.writeLocal(th, pg, proc, node, maxProt)
	default:
		f, prot = n.readLocal(th, pg, proc, node)
	}
	// Give the frame a second chance against the clock reclaimer: it was
	// just used.
	if f.Kind() == mem.Local {
		n.shards[f.Proc()].refbit[f.Index()] = true
	}
	// With the co-placement channel connected, ask the advisor whether
	// the faulting thread would be better placed elsewhere now that the
	// request — and the counters it updated — are settled.
	if n.advisor != nil && n.mover != nil {
		n.adviseThread(th, pg, proc, node)
	}
	n.maybeAudit(pg)
	return f, prot
}

// toRemote implements the §4.4 extension: the page is placed in its home
// processor's local memory; every processor maps that single frame, so the
// home references it locally and everyone else remotely. The transition
// rules are the "straightforward extension of the algorithm presented in
// Section 2" the paper describes.
func (n *Manager) toRemote(th *sim.Thread, pg *Page, proc int, maxProt mmu.Prot) (*mem.Frame, mmu.Prot) {
	home := n.machine.Home(pg.home)
	switch pg.state {
	case Remote:
		if pg.owner == home {
			n.emitAction(th, pg, proc, "no action")
			return pg.copies[home], maxProt
		}
		// The home pragma changed while the page was placed: sync the old
		// placement away and fall through to re-place at the new home.
		n.demoteRemote(th, pg, proc)
	case ReadOnly:
		n.flushExcept(th, pg, home, "flush other")
	case LocalWritable:
		if pg.owner != home {
			n.syncFlush(th, pg, pg.owner, proc, "sync&flush other")
		}
		pg.owner = -1
	case GlobalWritable:
		n.unmapAll(th, pg)
	}
	f := n.ensureCopy(th, pg, home, proc, false)
	pg.setState(Remote)
	pg.owner = home
	n.stats.RemotePlaced++
	n.emitAction(th, pg, proc, "place at home")
	return f, maxProt
}

// demoteRemote revokes a remote placement: the home copy is synced back to
// the global frame, every processor's mapping of it is dropped, and the
// frame is freed. The page reverts to the read-only state with no copies.
func (n *Manager) demoteRemote(th *sim.Thread, pg *Page, requester int) {
	at := pg.owner
	src := pg.copies[at]
	if src == nil {
		panic(n.violation(pg, "numa: remote page without a placed copy"))
	}
	n.copyFrame(th, pg.global, src, requester)
	n.stats.Syncs++
	// Every processor may map the home frame; drop them all.
	for p := 0; p < n.machine.NProc(); p++ {
		n.unmap(th, p, src)
	}
	n.machine.Memory().Local(at).Release(src)
	n.noteDrop(pg, at)
	n.stats.Flushes++
	n.stats.RemoteDemoted++
	pg.setState(ReadOnly)
	pg.owner = -1
	n.emitAction(th, pg, requester, "sync&flush home")
}

// readLocal implements the LOCAL row of Table 1. node is proc's home
// node, where the replica is placed.
func (n *Manager) readLocal(th *sim.Thread, pg *Page, proc, node int) (*mem.Frame, mmu.Prot) {
	switch pg.state {
	case ReadOnly:
		// Desired appearance: one more replica; state unchanged. Under the
		// no-replication ablation the single copy migrates instead.
		if n.noReplication && pg.copies[node] == nil && pg.NCopies() > 0 {
			n.flushExcept(th, pg, node, "flush other")
		}
		f := n.ensureCopy(th, pg, node, proc, true)
		return f, mmu.ProtRead
	case GlobalWritable:
		n.unmapAll(th, pg)
		f := n.ensureCopy(th, pg, node, proc, true)
		pg.setState(ReadOnly)
		return f, mmu.ProtRead
	case LocalWritable:
		if pg.owner == node {
			n.emitAction(th, pg, proc, "no action")
			return pg.copies[node], mmu.ProtRead
		}
		n.syncFlush(th, pg, pg.owner, proc, "sync&flush other")
		f := n.ensureCopy(th, pg, node, proc, true)
		pg.setState(ReadOnly)
		pg.owner = -1
		return f, mmu.ProtRead
	default:
		panic(n.violation(pg, "numa: readLocal on a remote page (toRemote handles placement)"))
	}
}

// writeLocal implements the LOCAL row of Table 2. node is proc's home
// node, which takes ownership.
func (n *Manager) writeLocal(th *sim.Thread, pg *Page, proc, node int, maxProt mmu.Prot) (*mem.Frame, mmu.Prot) {
	switch pg.state {
	case ReadOnly:
		n.flushExcept(th, pg, node, "flush other")
		f := n.ensureCopy(th, pg, node, proc, false)
		n.becomeOwner(pg, node)
		return f, maxProt
	case GlobalWritable:
		n.unmapAll(th, pg)
		f := n.ensureCopy(th, pg, node, proc, false)
		// Coming home from global memory is not a transfer between
		// processors, so it does not count against the move budget.
		pg.setState(LocalWritable)
		pg.owner = node
		pg.lastOwner = node
		return f, maxProt
	case LocalWritable:
		if pg.owner == node {
			n.emitAction(th, pg, proc, "no action")
			return pg.copies[node], maxProt
		}
		n.syncFlush(th, pg, pg.owner, proc, "sync&flush other")
		f := n.ensureCopy(th, pg, node, proc, false)
		n.becomeOwner(pg, node)
		return f, maxProt
	default:
		panic(n.violation(pg, "numa: writeLocal on a remote page (toRemote handles placement)"))
	}
}

// toGlobal implements the GLOBAL rows of Tables 1 and 2. node is proc's
// home node, used only to label the sync of an own-node copy.
func (n *Manager) toGlobal(th *sim.Thread, pg *Page, proc, node int, maxProt mmu.Prot) (*mem.Frame, mmu.Prot) {
	switch pg.state {
	case ReadOnly:
		n.flushExcept(th, pg, -1, "flush all")
	case GlobalWritable:
		n.emitAction(th, pg, proc, "no action")
	case LocalWritable:
		if pg.owner == node {
			n.syncFlush(th, pg, node, proc, "sync&flush own")
		} else {
			n.syncFlush(th, pg, pg.owner, proc, "sync&flush other")
		}
		pg.owner = -1
	case Remote:
		panic(n.violation(pg, "numa: toGlobal on a remote page (demote it first)"))
	}
	if pg.state != GlobalWritable {
		pg.setState(GlobalWritable)
		if !pg.pinned {
			pg.pinned = true
			n.stats.Pins++
			if n.bus.Enabled() {
				n.bus.Emit(simtrace.Event{
					Kind: simtrace.KindPin, Proc: int32(proc), Thread: int32(th.ID()),
					Time: int64(th.Clock()), Page: pg.id, Arg: int64(pg.moves),
				})
			}
		}
		if n.sweepEvery > 0 {
			n.gwPages = append(n.gwPages, pg) //numalint:coldpath bounded: one slot per pinned page, reclaimed by the sweep
		}
	}
	if pg.needZero {
		n.machine.ChargePageSys(th, proc, nil, pg.global)
		pg.needZero = false
		n.stats.ZeroFills++
	}
	return pg.global, maxProt
}

// MaybeSweep implements the defrost daemon: under a ReconsideringPolicy,
// once per interval it drops every pinned page's mappings, so the next
// access faults and the policy is consulted again. It is invoked from the
// fault path and from the scheduler's clock tick (pinned pages do not
// fault on their own); the sweep's cost is charged to the thread that
// triggered it, as daemon work billed to system time.
//
//numalint:hotpath
func (n *Manager) MaybeSweep(th *sim.Thread) {
	if n.sweepEvery <= 0 || len(n.gwPages) == 0 {
		return
	}
	if th.Clock()-n.lastSweep < n.sweepEvery {
		return
	}
	n.lastSweep = th.Clock()
	live := n.gwPages[:0]
	for _, pg := range n.gwPages {
		if pg.state != GlobalWritable {
			continue // left the pinned state some other way
		}
		n.unmapAll(th, pg)
		th.AdvanceSys(n.machine.Cost().NUMAOp)
		live = append(live, pg) //numalint:coldpath in-place filter: live reuses gwPages' backing array and cannot grow
	}
	n.gwPages = live
}

// becomeOwner records node as the page's local-writable owner and counts
// an ownership transfer when the page last belonged to a different node
// ("transfers of page ownership", §2.3.2).
func (n *Manager) becomeOwner(pg *Page, node int) {
	pg.setState(LocalWritable)
	pg.owner = node
	if pg.lastOwner >= 0 && pg.lastOwner != node {
		pg.moves++
		n.stats.Moves++
		pg.lastMove = pg.lastRequest
		if pg.moveHeat < heatCap {
			pg.moveHeat++
		}
	}
	pg.lastOwner = node
}

// ensureCopy guarantees that node holds a local replica of the page,
// copying from global memory (or performing the pending lazy zero-fill) as
// needed, and reports the replica's frame. The copy work is charged to
// the faulting processor proc. The caller has verified that a local frame
// is available. A read placement shares the global frame's bytes instead
// of copying them (mem.Frame.ShareFrom): the charge is the same, and a
// store to the replica would copy them first. A write placement copies,
// since its first store would copy anyway.
func (n *Manager) ensureCopy(th *sim.Thread, pg *Page, node, proc int, share bool) *mem.Frame {
	if f := pg.copies[node]; f != nil {
		return f
	}
	f, err := n.machine.Memory().Local(node).Alloc()
	if err != nil {
		// Access checked Free() before deciding LOCAL.
		panic(n.violation(pg, "numa: local pool %d unexpectedly empty: %v", node, err))
	}
	if pg.needZero {
		// Lazy zero-fill directly into local memory, avoiding "writing
		// zeros into global memory and immediately copying them" (§2.3.1).
		f.Zero()
		n.machine.ChargePageSys(th, proc, nil, f)
		pg.needZero = false
		n.stats.ZeroFills++
	} else {
		if share {
			f.ShareFrom(pg.global)
		} else {
			f.CopyFrom(pg.global)
		}
		n.machine.ChargePageSys(th, proc, pg.global, f)
		n.stats.Copies++
		n.chargeMoveDelay(th, proc)
	}
	n.noteCopy(pg, node, f)
	n.emitAction(th, pg, proc, "copy to local")
	return f
}

// syncFlush copies the dirty local-writable copy held by the owner node
// back to the global frame, then flushes that copy. The copy is performed
// by the faulting processor, so syncing another node's page pays
// remote-fetch plus global-store per word. The action label distinguishes
// the paper's "sync&flush own" and "sync&flush other".
func (n *Manager) syncFlush(th *sim.Thread, pg *Page, owner, requester int, label string) {
	src := pg.copies[owner]
	if src == nil {
		panic(n.violation(pg, "numa: syncFlush without a local copy on cpu%d", owner))
	}
	n.copyFrame(th, pg.global, src, requester)
	n.stats.Syncs++
	n.dropCopy(th, pg, owner)
	n.emitAction(th, pg, requester, label)
}

// dropCopy removes node's replica: drops any mapping to it (every
// processor homed on the node may have one) and releases the local frame.
func (n *Manager) dropCopy(th *sim.Thread, pg *Page, node int) {
	f := pg.copies[node]
	if f == nil {
		return
	}
	for _, p := range n.machine.NodeProcs(node) {
		n.unmap(th, p, f)
	}
	n.machine.Memory().Local(node).Release(f)
	n.noteDrop(pg, node)
	n.stats.Flushes++
}

// unmap drops processor p's translation of frame f, charging one MMU
// operation, and reports whether p had one.
func (n *Manager) unmap(th *sim.Thread, p int, f *mem.Frame) bool {
	if !n.machine.MMU(p).RemoveFrame(f) {
		return false
	}
	th.AdvanceSys(n.machine.Cost().MMUOp)
	return true
}

// copyFrame copies src's page into dst, charging processor proc for the
// copy and for any injected move delay. The caller counts it.
func (n *Manager) copyFrame(th *sim.Thread, dst, src *mem.Frame, proc int) {
	dst.CopyFrom(src)
	n.machine.ChargePageSys(th, proc, src, dst)
	n.chargeMoveDelay(th, proc)
}

// flushExcept drops every local replica except keep's (keep == -1 flushes
// all), and also drops any read-only mappings of the global frame on the
// processors of the flushed nodes.
func (n *Manager) flushExcept(th *sim.Thread, pg *Page, keep int, label string) {
	acted := false
	for node := range pg.copies {
		if node == keep {
			continue
		}
		if pg.copies[node] != nil {
			n.dropCopy(th, pg, node)
			acted = true
		}
		// A processor may map the global frame read-only (local fallback).
		for _, p := range n.machine.NodeProcs(node) {
			if n.unmap(th, p, pg.global) {
				acted = true
			}
		}
	}
	if acted {
		n.emitAction(th, pg, -1, label)
	}
}

// unmapAll drops every processor's mapping of the global frame (used when a
// global-writable page, which has no local copies, leaves that state). The
// action is reported unconditionally: it is the protocol step, whether or
// not translations happen to exist at the moment.
func (n *Manager) unmapAll(th *sim.Thread, pg *Page) {
	for p := 0; p < n.machine.NProc(); p++ {
		if n.unmap(th, p, pg.global) {
			n.stats.Unmaps++
		}
	}
	n.emitAction(th, pg, -1, "unmap all")
}

// moveOwner moves a local-writable page's authoritative copy from its
// owner node to node in one copy-then-drop step, charging the copy and
// any move delay to proc. The caller has verified that node has a free
// frame.
func (n *Manager) moveOwner(th *sim.Thread, pg *Page, node, proc int) {
	src := pg.copies[pg.owner]
	dst, err := n.machine.Memory().Local(node).Alloc()
	if err != nil {
		panic(n.violation(pg, "numa: local pool %d unexpectedly empty: %v", node, err))
	}
	n.copyFrame(th, dst, src, proc)
	n.stats.Copies++
	n.dropCopy(th, pg, pg.owner)
	n.noteCopy(pg, node, dst)
	pg.owner = node
	pg.lastOwner = node
}

// PrepareEvict quiesces a page for pageout: syncs a dirty owner copy back
// to global memory, flushes every replica and drops every mapping. After it
// returns, the global frame is authoritative and unmapped everywhere.
func (n *Manager) PrepareEvict(th *sim.Thread, pg *Page) {
	n.now = th.Clock()
	if pg.state == Remote {
		n.demoteRemote(th, pg, n.nodeProc(pg.owner))
	}
	if pg.state == LocalWritable {
		n.syncFlush(th, pg, pg.owner, n.nodeProc(pg.owner), "sync&flush own")
		pg.owner = -1
	}
	n.flushExcept(th, pg, -1, "flush all")
	n.unmapAll(th, pg)
	pg.setState(ReadOnly)
	n.maybeAudit(pg)
}

// CheckInvariants validates the structural invariants of a page's
// consistency state; tests and the chaos harness call it after protocol
// operations.
func (n *Manager) CheckInvariants(pg *Page) error {
	switch pg.state {
	case ReadOnly:
		if pg.owner != -1 {
			return fmt.Errorf("numa: read-only page has owner %d", pg.owner)
		}
	case LocalWritable:
		if pg.owner < 0 || pg.owner >= n.machine.NNodes() {
			return fmt.Errorf("numa: local-writable page has bad owner %d", pg.owner)
		}
		if pg.NCopies() != 1 || pg.copies[pg.owner] == nil {
			return fmt.Errorf("numa: local-writable page has %d copies (owner %d copy %v)",
				pg.NCopies(), pg.owner, pg.copies[pg.owner])
		}
	case GlobalWritable:
		if pg.NCopies() != 0 {
			return fmt.Errorf("numa: global-writable page has %d copies", pg.NCopies())
		}
		if pg.owner != -1 {
			return fmt.Errorf("numa: global-writable page has owner %d", pg.owner)
		}
	case Remote:
		if pg.owner < 0 || pg.copies[pg.owner] == nil || pg.NCopies() != 1 {
			return fmt.Errorf("numa: remote page placement inconsistent (owner %d, copies %d)",
				pg.owner, pg.NCopies())
		}
	default:
		return fmt.Errorf("numa: unknown state %v", pg.state)
	}
	for p, c := range pg.copies {
		if c != nil && (c.Kind() != mem.Local || c.Proc() != p) {
			return fmt.Errorf("numa: copy slot %d holds frame %v", p, c)
		}
	}
	if pg.global == nil || pg.global.Kind() != mem.Global {
		return fmt.Errorf("numa: bad global frame %v", pg.global)
	}
	return nil
}

// FreeTag is the token returned by FreePage, redeemed by FreePageSync
// (the paper's lazy pmap_free_page / pmap_free_page_sync pair, §2.3.3).
type FreeTag struct {
	done bool
}

// FreePage starts cleanup of a logical page whose machine-independent frame
// has been freed: all cache resources are released and cache state reset.
// The costs are charged when the cleanup is performed; the returned tag
// lets a reallocation wait for completion.
func (n *Manager) FreePage(th *sim.Thread, pg *Page) *FreeTag {
	n.now = th.Clock()
	if pg.state == Remote {
		n.demoteRemote(th, pg, n.nodeProc(pg.owner))
	}
	for node := range pg.copies {
		n.dropCopy(th, pg, node)
		for _, p := range n.machine.NodeProcs(node) {
			n.unmap(th, p, pg.global)
		}
	}
	n.machine.Memory().Global().Release(pg.global)
	pg.setState(ReadOnly)
	pg.owner = -1
	pg.pinned = false
	pg.pinSeen = false
	pg.moves = 0
	n.unregister(pg)
	n.stats.PagesFreed++
	if n.bus.Enabled() {
		n.bus.Emit(simtrace.Event{
			Kind: simtrace.KindPageFreed, Proc: -1, Thread: int32(th.ID()),
			Time: int64(th.Clock()), Page: pg.id,
		})
	}
	// Purge the page from the defrost list before the record can be
	// recycled: a stale entry aliasing a future page would be swept
	// twice. The old lazy drop (state no longer global-writable) acted on
	// nothing either, so this is observably identical.
	if len(n.gwPages) > 0 {
		live := n.gwPages[:0]
		for _, g := range n.gwPages {
			if g != pg {
				live = append(live, g)
			}
		}
		n.gwPages = live
	}
	// Retire the record into the pool; the next NewPage/AdoptPage reuses
	// it (with a fresh id). Cleanup is eager, so the reusable tag is
	// always complete.
	n.freePages = append(n.freePages, pg)
	n.freeTag = FreeTag{done: true}
	return &n.freeTag
}

// FreePageSync waits for the lazy cleanup started by FreePage to complete.
// In this implementation cleanup is performed eagerly, so the call only
// validates the tag; the interface shape is the paper's.
func (n *Manager) FreePageSync(tag *FreeTag) {
	if tag == nil || !tag.done {
		panic(n.violation(nil, "numa: FreePageSync on incomplete tag"))
	}
}
