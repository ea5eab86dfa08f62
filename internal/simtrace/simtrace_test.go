package simtrace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestNilBusIsDisabledAndSafe(t *testing.T) {
	var b *Bus
	if b.Enabled() {
		t.Fatal("nil bus reports Enabled")
	}
	b.Emit(Event{Kind: KindAction}) // must not panic
}

func TestBusAttachDetach(t *testing.T) {
	b := NewBus()
	if b.Enabled() {
		t.Fatal("fresh bus reports Enabled")
	}
	b.Emit(Event{Kind: KindAction}) // dropped, must not panic

	var l ListSink
	b.Attach(&l)
	if !b.Enabled() {
		t.Fatal("bus with sink reports disabled")
	}
	b.Emit(Event{Kind: KindAction, Page: 3})
	b.Attach(nil)
	if b.Enabled() {
		t.Fatal("detached bus reports Enabled")
	}
	b.Emit(Event{Kind: KindAction, Page: 4})
	if len(l.Events()) != 1 || l.Events()[0].Page != 3 {
		t.Fatalf("want exactly the one event emitted while attached, got %v", l.Events())
	}
}

func TestCountingSink(t *testing.T) {
	var c CountingSink
	for i := 0; i < 5; i++ {
		c.Emit(Event{Kind: KindAction})
	}
	c.Emit(Event{Kind: KindSpan})
	if got := c.Count(KindAction); got != 5 {
		t.Fatalf("Count(KindAction) = %d, want 5", got)
	}
	if got := c.Count(KindSpan); got != 1 {
		t.Fatalf("Count(KindSpan) = %d, want 1", got)
	}
	if got := c.Count(KindPin); got != 0 {
		t.Fatalf("Count(KindPin) = %d, want 0", got)
	}
	if got := c.Total(); got != 6 {
		t.Fatalf("Total() = %d, want 6", got)
	}
	r := c.Render()
	if !strings.Contains(r, "action") || !strings.Contains(r, "span") {
		t.Fatalf("Render missing kinds:\n%s", r)
	}
	if strings.Contains(r, "pin") {
		t.Fatalf("Render includes zero-count kind:\n%s", r)
	}
}

func TestRingSinkWraparound(t *testing.T) {
	r := NewRingSink(4)
	for i := 0; i < 10; i++ {
		r.Emit(Event{Kind: KindAction, Time: int64(i)})
	}
	evs := r.Events()
	if len(evs) != 4 {
		t.Fatalf("retained %d events, want 4", len(evs))
	}
	for i, ev := range evs {
		if want := int64(6 + i); ev.Time != want {
			t.Fatalf("event %d has time %d, want %d (oldest-first)", i, ev.Time, want)
		}
	}
}

func TestRingSinkPartial(t *testing.T) {
	r := NewRingSink(8)
	for i := 0; i < 3; i++ {
		r.Emit(Event{Time: int64(i)})
	}
	evs := r.Events()
	if len(evs) != 3 || evs[0].Time != 0 || evs[2].Time != 2 {
		t.Fatalf("partial ring contents wrong: %v", evs)
	}
}

func TestTee(t *testing.T) {
	var a, b ListSink
	s := Tee(&a, &b)
	s.Emit(Event{Kind: KindPin, Page: 7})
	if len(a.Events()) != 1 || len(b.Events()) != 1 {
		t.Fatalf("tee did not fan out: %d, %d", len(a.Events()), len(b.Events()))
	}
}

func TestEventString(t *testing.T) {
	ev := Event{Kind: KindStateChange, Proc: 2, Thread: -1, Page: 5, Time: 1500, Arg: 3, Arg2: 1, Label: "global-writable"}
	s := ev.String()
	for _, want := range []string{"state-change", "cpu2", "page5", "1->3", "global-writable"} {
		if !strings.Contains(s, want) {
			t.Fatalf("String() = %q missing %q", s, want)
		}
	}
	if strings.Contains(s, "th-1") {
		t.Fatalf("String() = %q renders absent thread", s)
	}
}

func TestFormatEvents(t *testing.T) {
	out := FormatEvents([]Event{
		{Kind: KindPageCreated, Page: 1, Proc: -1, Thread: -1},
		{Kind: KindPin, Page: 1, Proc: 0, Thread: -1, Arg: 4},
	})
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("want 2 lines, got %d:\n%s", len(lines), out)
	}
}

func TestWriteChromeValidAndDeterministic(t *testing.T) {
	events := []Event{
		{Kind: KindPageCreated, Page: 0, Proc: -1, Thread: -1, Time: 0},
		{Kind: KindSchedAssign, Proc: 1, Thread: 2, Time: 100, Label: "worker0"},
		{Kind: KindSpan, Proc: 1, Thread: 2, Time: 100, Dur: 2000, Label: "worker0"},
		{Kind: KindFaultExit, Proc: 1, Thread: 2, Time: 3000, Dur: 500, Page: 0, Arg: 0x1000, Arg2: 1},
		{Kind: KindDecision, Proc: 1, Thread: 2, Time: 3000, Page: 0, Arg: 1, Arg2: 2, Label: "threshold"},
		{Kind: KindAction, Proc: 1, Thread: 2, Time: 3000, Page: 0, Label: "copy to local"},
		{Kind: KindStateChange, Proc: 1, Thread: -1, Time: 3000, Page: 0, Arg: 2, Arg2: 0, Label: "local-writable"},
		{Kind: KindPin, Proc: 1, Thread: -1, Time: 4000, Page: 0, Arg: 4},
		{Kind: KindPageCreated, Page: 1, Proc: -1, Thread: -1, Time: 4500},
		{Kind: KindPageFreed, Page: 0, Proc: -1, Thread: -1, Time: 5000},
		// Page 1 is never freed: the exporter must close its async track.
	}
	var buf bytes.Buffer
	if err := WriteChrome(&buf, events, ChromeMeta{NProc: 3, Label: "unit \"quoted\""}); err != nil {
		t.Fatal(err)
	}
	out := buf.Bytes()
	if !json.Valid(out) {
		t.Fatalf("exporter produced invalid JSON:\n%s", out)
	}

	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(out, &doc); err != nil {
		t.Fatal(err)
	}
	phases := map[string]int{}
	for _, ev := range doc.TraceEvents {
		phases[ev["ph"].(string)]++
	}
	// 1 process_name + 3 cpus + 1 unbound metadata records.
	if phases["M"] != 5 {
		t.Fatalf("want 5 metadata events, got %d", phases["M"])
	}
	if phases["X"] != 2 { // span + fault
		t.Fatalf("want 2 complete events, got %d", phases["X"])
	}
	if phases["b"] != 2 || phases["e"] != 2 {
		t.Fatalf("want 2 async begin / 2 async end, got b=%d e=%d", phases["b"], phases["e"])
	}
	if phases["n"] != 1 {
		t.Fatalf("want 1 async instant, got %d", phases["n"])
	}
	if phases["i"] != 4 { // sched-assign, decision, action, pin
		t.Fatalf("want 4 instants, got %d", phases["i"])
	}

	var buf2 bytes.Buffer
	if err := WriteChrome(&buf2, events, ChromeMeta{NProc: 3, Label: "unit \"quoted\""}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, buf2.Bytes()) {
		t.Fatal("two exports of the same stream differ")
	}
}

func TestTSFormatting(t *testing.T) {
	for _, tc := range []struct {
		ns   int64
		want string
	}{
		{0, "0.000"},
		{1, "0.001"},
		{999, "0.999"},
		{1000, "1.000"},
		{1234567, "1234.567"},
	} {
		if got := ts(tc.ns); got != tc.want {
			t.Errorf("ts(%d) = %q, want %q", tc.ns, got, tc.want)
		}
	}
}
