// Package simtrace is the simulator's structured event layer: a typed
// event vocabulary covering engine scheduling, fault handling, NUMA
// protocol actions, policy decisions and page lifetimes, an always-present
// Bus that instrumented packages emit into, and pluggable Sinks that
// consume the stream (counting, ring-buffer post-mortems, Chrome
// trace-event export for Perfetto).
//
// The design constraint is zero cost when off: every machine owns a Bus,
// but with no sink attached the emit path is a nil check and nothing else
// — no Event is even constructed (instrumentation sites guard with
// Bus.Enabled() before building the Event). The Table 3 hot path measures
// under 1% overhead with tracing disabled (BenchmarkTraceOverhead).
//
// Determinism: events carry only virtual time and simulation state, never
// wall-clock or host identity (the package is on numalint's deterministic
// core list), and they are emitted from the single-threaded simulation
// loop, so for a given program the event stream — and any export derived
// from it — is byte-identical at every host parallelism setting.
package simtrace

import (
	"fmt"
	"strings"
)

// Kind classifies an Event.
type Kind uint8

// Event kinds. KindCount is the number of kinds, not a kind.
const (
	// KindDispatch: the engine resumed a thread (one per context switch).
	KindDispatch Kind = iota
	// KindSpan: a thread ran on a processor for [Time, Time+Dur).
	KindSpan
	// KindFaultEnter: a page fault entered the kernel (Arg: va, Arg2: 1
	// for a write fault).
	KindFaultEnter
	// KindFaultExit: the fault completed; Time is the completion time and
	// Dur the system time the fault consumed (Arg: va, Arg2: write).
	KindFaultExit
	// KindDecision: the NUMA policy answered a request (Arg: the
	// numa.Location ordinal, Arg2: the page's move count, Label: policy
	// name).
	KindDecision
	// KindAction: the NUMA manager performed one protocol action of the
	// paper's Tables 1/2 (Label: the paper's action vocabulary, Arg: the
	// page state ordinal after the action).
	KindAction
	// KindStateChange: a page moved between consistency states (Arg: new
	// state ordinal, Arg2: previous state ordinal).
	KindStateChange
	// KindPageCreated: a logical page came into existence.
	KindPageCreated
	// KindPageFreed: a logical page was freed back to global memory.
	KindPageFreed
	// KindPin: a page was pinned into global memory (Arg: move count at
	// the moment of pinning).
	KindPin
	// KindMapEnter: the pmap layer established a translation (Arg: va,
	// Arg2: protection bits).
	KindMapEnter
	// KindSchedAssign: the scheduler bound a newly created thread to a
	// processor (Label: thread name).
	KindSchedAssign
	// KindPressure: a memory pool could not satisfy an allocation and the
	// system degraded gracefully (Label: "local-fallback" when a LOCAL
	// placement demoted to global, "pageout" when global memory paged out
	// a victim; Arg: the pool's free-frame count at the moment).
	KindPressure
	// KindEvict: the clock reclaimer evicted one local copy to free a
	// frame (Proc: the pool swept, Page: the victim, Arg: the victim's
	// state ordinal before eviction, Label: the protocol action used).
	KindEvict
	// KindRetry: a transiently failed local allocation was retried after
	// a backoff (Arg: the zero-based attempt number, Dur: the backoff
	// waited in virtual nanoseconds).
	KindRetry
	// KindLinkWait: a memory transfer queued behind earlier traffic on a
	// busy interconnect link (contended topologies only; Dur: the
	// queueing delay charged in virtual nanoseconds, Arg: the node of the
	// frame being accessed, or -1 for interleaved global memory).
	KindLinkWait
	// KindSchedHint: a policy advised the scheduler to migrate a thread
	// toward a node (Arg: the advised node, Arg2: 1 if the scheduler
	// accepted the hint, 0 if it rejected it, Label: policy name).
	KindSchedHint
	// KindSchedMigrate: the scheduler rebound a thread at a quantum
	// boundary, applying an accepted hint or failing the thread over off
	// a dead processor (Proc: the new processor, Arg: the target node,
	// Arg2: the processor left behind).
	KindSchedMigrate
	// KindNodeOffline: a health schedule marked a node failing (Arg: the
	// node; Arg2: the number of resident pages evacuated from it).
	KindNodeOffline
	// KindNodeOnline: a previously failed node rejoined cold (Arg: the
	// node).
	KindNodeOnline
	// KindLinkChange: an interconnect link changed health (Arg: the link
	// index, Arg2: the capacity divisor — 0 for severed, 1 for restored,
	// >1 for degraded; Label: "sever", "degrade" or "restore").
	KindLinkChange
	// KindEvacuate: the evacuation protocol moved or dropped one page off
	// a failing node (Page: the page, Arg: the source node, Arg2: the
	// destination node or -1 when the copy was dropped/synced to global,
	// Label: the evacuation action).
	KindEvacuate

	// KindCount is the number of event kinds.
	KindCount
)

var kindNames = [KindCount]string{
	"dispatch", "span", "fault-enter", "fault-exit", "decision",
	"action", "state-change", "page-created", "page-freed", "pin",
	"map-enter", "sched-assign", "pressure", "evict", "retry",
	"link-wait", "sched-hint", "sched-migrate",
	"node-offline", "node-online", "link-change", "evacuate",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Event is one structured trace record. Time and Dur are virtual
// nanoseconds (the engine's sim.Time scale, held as int64 so this package
// depends on nothing); Proc and Thread are -1 when not applicable, Page is
// -1 when the event concerns no page. Arg/Arg2 are kind-specific (see the
// Kind constants); Label is the kind-specific human vocabulary (protocol
// action, thread name, policy name).
type Event struct {
	Kind   Kind
	Proc   int32
	Thread int32
	Time   int64
	Dur    int64
	Page   int64
	Arg    int64
	Arg2   int64
	Label  string
}

// String renders the event for logs and post-mortem dumps.
func (e Event) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%12dns %-12s", e.Time, e.Kind)
	if e.Proc >= 0 {
		fmt.Fprintf(&b, " cpu%d", e.Proc)
	}
	if e.Thread >= 0 {
		fmt.Fprintf(&b, " th%d", e.Thread)
	}
	if e.Page >= 0 {
		fmt.Fprintf(&b, " page%d", e.Page)
	}
	switch e.Kind {
	case KindSpan, KindFaultExit:
		fmt.Fprintf(&b, " dur=%dns", e.Dur)
	case KindStateChange:
		fmt.Fprintf(&b, " %d->%d", e.Arg2, e.Arg)
	case KindFaultEnter, KindMapEnter:
		fmt.Fprintf(&b, " va=%#x", uint32(e.Arg))
	case KindDecision:
		fmt.Fprintf(&b, " loc=%d moves=%d", e.Arg, e.Arg2)
	case KindPin:
		fmt.Fprintf(&b, " moves=%d", e.Arg)
	case KindPressure:
		fmt.Fprintf(&b, " free=%d", e.Arg)
	case KindRetry:
		fmt.Fprintf(&b, " attempt=%d backoff=%dns", e.Arg, e.Dur)
	case KindLinkWait:
		fmt.Fprintf(&b, " node=%d queued=%dns", e.Arg, e.Dur)
	case KindSchedHint:
		verdict := "rejected"
		if e.Arg2 != 0 {
			verdict = "accepted"
		}
		fmt.Fprintf(&b, " node=%d %s", e.Arg, verdict)
	case KindSchedMigrate:
		fmt.Fprintf(&b, " node=%d from=cpu%d", e.Arg, e.Arg2)
	case KindNodeOffline:
		fmt.Fprintf(&b, " node=%d evacuated=%d", e.Arg, e.Arg2)
	case KindNodeOnline:
		fmt.Fprintf(&b, " node=%d", e.Arg)
	case KindLinkChange:
		fmt.Fprintf(&b, " link=%d factor=%d", e.Arg, e.Arg2)
	case KindEvacuate:
		if e.Arg2 >= 0 {
			fmt.Fprintf(&b, " node%d->node%d", e.Arg, e.Arg2)
		} else {
			fmt.Fprintf(&b, " node%d->global", e.Arg)
		}
	}
	if e.Label != "" {
		fmt.Fprintf(&b, " %q", e.Label)
	}
	return b.String()
}

// Sink consumes events. Sinks attached to a machine that the harness runs
// concurrently with others (e.g. one CountingSink shared by every table
// row) must be safe for concurrent Emit; sinks attached to a single
// simulation (RingSink, ListSink) need not be.
type Sink interface {
	Emit(ev Event)
}

// BatchSink is a Sink that can absorb a run of events in one call. When
// the attached sink implements it, the Bus buffers emissions into a
// fixed-size ring and hands the sink whole batches instead of making one
// dynamic-dispatch call per event — the simulation loop's per-event cost
// drops to a buffered struct copy. The batch slice is the Bus's own
// buffer and is only valid for the duration of the call; sinks that
// retain events must copy them out.
type BatchSink interface {
	Sink
	EmitBatch(evs []Event)
}

// busBatch is the Bus's buffered-emission capacity. Events are delivered
// in order when the buffer fills and on Flush; 256 events keeps the
// buffer within a few cache pages while amortizing sink dispatch ~100x.
const busBatch = 256

// Bus is the per-machine event conduit. Instrumented packages keep a *Bus
// and guard every emission site with Enabled(), so a machine without an
// attached sink pays one nil check per potential event and never
// constructs the Event itself. A nil *Bus is valid and permanently
// disabled.
//
// When the attached sink implements BatchSink, the Bus buffers up to
// busBatch events and flushes them in order — on buffer fill, on Flush,
// and on Attach. The engine flushes when its run loop exits, so any code
// that inspects a buffering sink after Run sees the complete stream;
// mid-run readers (the protocol auditor's forensics snapshot) call Flush
// first.
type Bus struct {
	sink  Sink
	batch BatchSink // non-nil iff sink implements BatchSink
	n     int       // buffered events in buf[:n]
	buf   []Event
}

// NewBus returns a bus with no sink attached.
func NewBus() *Bus { return &Bus{} }

// Attach installs the sink that will receive subsequent events (nil
// detaches). Attach before the simulation runs; the simulation loop does
// not expect the sink to change mid-run. Any events buffered for a
// previously attached batching sink are flushed to it first.
func (b *Bus) Attach(s Sink) {
	b.Flush()
	b.sink = s
	b.batch = nil
	if bs, ok := s.(BatchSink); ok {
		b.batch = bs
		if b.buf == nil {
			b.buf = make([]Event, busBatch)
		}
	}
}

// Enabled reports whether events are being consumed. Emission sites check
// it before constructing an Event — this is the whole zero-cost-when-off
// contract.
//
//numalint:hotpath
func (b *Bus) Enabled() bool { return b != nil && b.sink != nil }

// Emit delivers the event to the attached sink, if any. With a batching
// sink attached the event is buffered; see Flush.
//
//numalint:hotpath
func (b *Bus) Emit(ev Event) {
	if b == nil || b.sink == nil {
		return
	}
	if b.batch == nil {
		//numalint:coldpath unbatched sink: a host-side observer chose per-event dispatch
		b.sink.Emit(ev)
		return
	}
	b.buf[b.n] = ev
	b.n++
	if b.n == len(b.buf) {
		//numalint:coldpath amortized: one host-side batch dispatch per 256 events
		b.batch.EmitBatch(b.buf[:b.n])
		b.n = 0
	}
}

// Flush delivers any buffered events to the attached batching sink. A nil
// or non-buffering bus is a no-op. Readers that inspect sink state while
// a simulation is still running must Flush first.
func (b *Bus) Flush() {
	if b == nil || b.batch == nil || b.n == 0 {
		return
	}
	b.batch.EmitBatch(b.buf[:b.n])
	b.n = 0
}

// tee fans one event stream out to several sinks.
type tee []Sink

func (t tee) Emit(ev Event) {
	for _, s := range t {
		s.Emit(ev)
	}
}

// EmitBatch implements BatchSink: members that batch receive the whole
// run in one call, the rest get one Emit per event.
func (t tee) EmitBatch(evs []Event) {
	for _, s := range t {
		if bs, ok := s.(BatchSink); ok {
			bs.EmitBatch(evs)
			continue
		}
		for _, ev := range evs {
			s.Emit(ev)
		}
	}
}

// Tee returns a sink that forwards every event to each of sinks in order.
// The result implements BatchSink, so a Bus buffers for it; every member
// still observes the stream in emission order.
func Tee(sinks ...Sink) Sink { return tee(sinks) }

// FormatEvents renders events one per line — the post-mortem dump format
// tests log when an invariant fails.
func FormatEvents(events []Event) string {
	var b strings.Builder
	for _, ev := range events {
		b.WriteString(ev.String())
		b.WriteByte('\n')
	}
	return b.String()
}
