package simtrace

import (
	"fmt"
	"strings"
	"sync/atomic"
)

// CountingSink tallies events per kind. It is the cheapest useful sink
// (one atomic add per event) and is safe to share across simulations the
// harness runs concurrently — cmd/tables -timing attaches a single
// CountingSink to every run of a table.
type CountingSink struct {
	counts [KindCount]atomic.Uint64
}

// Emit implements Sink.
func (c *CountingSink) Emit(ev Event) {
	if ev.Kind < KindCount {
		c.counts[ev.Kind].Add(1)
	}
}

// EmitBatch implements BatchSink: the batch is tallied into a local
// array first, so a 256-event batch costs at most KindCount atomic adds
// instead of 256.
func (c *CountingSink) EmitBatch(evs []Event) {
	var local [KindCount]uint64
	for _, ev := range evs {
		if ev.Kind < KindCount {
			local[ev.Kind]++
		}
	}
	for k, n := range local {
		if n > 0 {
			c.counts[k].Add(n)
		}
	}
}

// Count returns the number of events of kind k seen so far.
//
//numalint:api the bench module's child run (bench/child.go) reads each kind's count; it is a nested module the loader does not see
func (c *CountingSink) Count(k Kind) uint64 {
	if k >= KindCount {
		return 0
	}
	return c.counts[k].Load()
}

// Total returns the number of events of all kinds seen so far.
func (c *CountingSink) Total() uint64 {
	var n uint64
	for i := range c.counts {
		n += c.counts[i].Load()
	}
	return n
}

// Render returns a fixed-order, one-line-per-kind summary of the counters
// (kinds with zero events are omitted; the order is the Kind enumeration,
// so output is deterministic).
func (c *CountingSink) Render() string {
	var b strings.Builder
	for k := Kind(0); k < KindCount; k++ {
		if n := c.counts[k].Load(); n > 0 {
			fmt.Fprintf(&b, "  %-12s %d\n", k.String(), n)
		}
	}
	return b.String()
}

// RingSink keeps the most recent events in a fixed-capacity ring buffer
// for post-mortem dumps: tests attach one and, on an invariant failure,
// log FormatEvents(ring.Events()) to show the protocol history that led
// to the bad state. Not safe for concurrent Emit.
type RingSink struct {
	buf  []Event
	next int
}

// NewRingSink returns a ring buffer retaining the last cap events.
func NewRingSink(capacity int) *RingSink {
	if capacity < 1 {
		capacity = 1
	}
	return &RingSink{buf: make([]Event, 0, capacity)}
}

// Emit implements Sink.
func (r *RingSink) Emit(ev Event) {
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, ev)
	} else {
		r.buf[r.next] = ev
	}
	r.next = (r.next + 1) % cap(r.buf)
}

// EmitBatch implements BatchSink.
func (r *RingSink) EmitBatch(evs []Event) {
	for _, ev := range evs {
		r.Emit(ev)
	}
}

// Events returns the retained events, oldest first.
func (r *RingSink) Events() []Event {
	if len(r.buf) < cap(r.buf) {
		out := make([]Event, len(r.buf))
		copy(out, r.buf)
		return out
	}
	out := make([]Event, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	out = append(out, r.buf[:r.next]...)
	return out
}

// ListSink records every event in order. It is the exporter's collection
// buffer (acesim -trace-out attaches one, then hands Events() to
// WriteChrome). Not safe for concurrent Emit.
type ListSink struct {
	events []Event
}

// Emit implements Sink.
func (l *ListSink) Emit(ev Event) { l.events = append(l.events, ev) }

// EmitBatch implements BatchSink. The batch slice is the bus's reusable
// buffer, so the events are copied out (append copies the structs).
func (l *ListSink) EmitBatch(evs []Event) { l.events = append(l.events, evs...) }

// Events returns the recorded events in emission order. The slice is the
// sink's own backing store; do not Emit concurrently with using it.
func (l *ListSink) Events() []Event { return l.events }
