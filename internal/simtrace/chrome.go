package simtrace

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strings"
)

// ChromeMeta parameterizes a Chrome trace-event export.
type ChromeMeta struct {
	// NProc is the machine's processor count; processor n becomes track
	// "cpuN", and events not bound to a processor land on an extra
	// "unbound" track with tid NProc.
	NProc int
	// Label names the process track (e.g. the application being traced).
	Label string
}

// WriteChrome renders events as Chrome trace-event JSON
// ({"traceEvents":[...]}), loadable in Perfetto (ui.perfetto.dev) and
// chrome://tracing. The export carries one track per processor (complete
// "X" spans for thread execution and fault handling, instants for policy
// decisions and protocol actions) plus one async track per page whose
// begin/instant/end events trace the page's lifetime and consistency-state
// changes.
//
// The JSON is written by hand with a fixed key order and no map
// iteration, so a given event stream always serializes to identical
// bytes — the exporter determinism test depends on this.
func WriteChrome(w io.Writer, events []Event, meta ChromeMeta) error {
	bw := bufio.NewWriter(w)
	cw := chromeWriter{w: bw, nproc: meta.NProc}

	bw.WriteString("{\"traceEvents\":[\n")

	procName := "numasim"
	if meta.Label != "" {
		procName = "numasim: " + meta.Label
	}
	cw.meta("process_name", 0, fmt.Sprintf("{\"name\":%s}", quoteJSON(procName)))
	for p := 0; p < meta.NProc; p++ {
		cw.meta("thread_name", p, fmt.Sprintf("{\"name\":\"cpu%d\"}", p))
	}
	cw.meta("thread_name", meta.NProc, "{\"name\":\"unbound\"}")

	// Pages with an open async track, and the largest timestamp seen, so
	// never-freed pages can be closed at end-of-trace.
	open := make(map[int64]bool)
	var endTS int64
	for _, ev := range events {
		if ev.Time > endTS {
			endTS = ev.Time
		}
		switch ev.Kind {
		case KindSpan:
			name := ev.Label
			if name == "" {
				name = fmt.Sprintf("th%d", ev.Thread)
			}
			cw.complete(name, ev.Proc, ev.Time, ev.Dur,
				fmt.Sprintf("{\"thread\":%d}", ev.Thread))
		case KindFaultExit:
			cw.complete("fault", ev.Proc, ev.Time-ev.Dur, ev.Dur,
				fmt.Sprintf("{\"va\":%d,\"write\":%d,\"page\":%d}", ev.Arg, ev.Arg2, ev.Page))
		case KindDecision:
			cw.instant("decision: "+ev.Label, ev.Proc, ev.Time,
				fmt.Sprintf("{\"loc\":%d,\"moves\":%d,\"page\":%d}", ev.Arg, ev.Arg2, ev.Page))
		case KindAction:
			cw.instant("action: "+ev.Label, ev.Proc, ev.Time,
				fmt.Sprintf("{\"page\":%d}", ev.Page))
		case KindPin:
			cw.instant("pin", ev.Proc, ev.Time,
				fmt.Sprintf("{\"page\":%d,\"moves\":%d}", ev.Page, ev.Arg))
		case KindSchedAssign:
			cw.instant("spawn: "+ev.Label, ev.Proc, ev.Time,
				fmt.Sprintf("{\"thread\":%d}", ev.Thread))
		case KindPressure:
			cw.instant("pressure: "+ev.Label, ev.Proc, ev.Time,
				fmt.Sprintf("{\"free\":%d,\"page\":%d}", ev.Arg, ev.Page))
		case KindEvict:
			cw.instant("evict: "+ev.Label, ev.Proc, ev.Time,
				fmt.Sprintf("{\"page\":%d,\"state\":%d}", ev.Page, ev.Arg))
		case KindRetry:
			cw.instant("retry", ev.Proc, ev.Time,
				fmt.Sprintf("{\"attempt\":%d,\"backoff\":%d,\"page\":%d}", ev.Arg, ev.Dur, ev.Page))
		case KindLinkWait:
			cw.instant("link-wait", ev.Proc, ev.Time,
				fmt.Sprintf("{\"node\":%d,\"queued\":%d}", ev.Arg, ev.Dur))
		case KindPageCreated:
			cw.async('b', "page", ev.Page, ev.Time, "")
			open[ev.Page] = true
		case KindStateChange:
			label := ev.Label
			if label == "" {
				label = "state"
			}
			cw.async('n', label, ev.Page, ev.Time,
				fmt.Sprintf("{\"from\":%d,\"to\":%d}", ev.Arg2, ev.Arg))
		case KindPageFreed:
			cw.async('e', "page", ev.Page, ev.Time, "")
			delete(open, ev.Page)
		}
		// KindDispatch, KindFaultEnter and KindMapEnter are bookkeeping
		// for counters and post-mortems; the spans above already carry
		// their information visually.
	}

	// Close the async track of every page still live at end of trace.
	still := make([]int64, 0, len(open))
	//numalint:ordered still is sorted below
	for id := range open {
		still = append(still, id)
	}
	sort.Slice(still, func(i, j int) bool { return still[i] < still[j] })
	for _, id := range still {
		cw.async('e', "page", id, endTS, "")
	}

	bw.WriteString("\n]}\n")
	return bw.Flush()
}

// chromeWriter emits trace-event objects with a fixed key order.
type chromeWriter struct {
	w     *bufio.Writer
	nproc int
	wrote bool
}

func (c *chromeWriter) sep() {
	if c.wrote {
		c.w.WriteString(",\n")
	}
	c.wrote = true
}

// tid maps a processor number to a track id; unbound events (-1) go to
// the extra track after the last processor.
func (c *chromeWriter) tid(proc int32) int {
	if proc < 0 {
		return c.nproc
	}
	return int(proc)
}

// ts renders virtual nanoseconds as the microsecond timestamps the trace
// format expects, keeping nanosecond precision via the fraction digits.
func ts(ns int64) string {
	return fmt.Sprintf("%d.%03d", ns/1000, ns%1000)
}

func (c *chromeWriter) meta(name string, tid int, args string) {
	c.sep()
	fmt.Fprintf(c.w, "{\"name\":%s,\"ph\":\"M\",\"pid\":0,\"tid\":%d,\"args\":%s}",
		quoteJSON(name), tid, args)
}

func (c *chromeWriter) complete(name string, proc int32, startNS, durNS int64, args string) {
	c.sep()
	fmt.Fprintf(c.w, "{\"name\":%s,\"ph\":\"X\",\"ts\":%s,\"dur\":%s,\"pid\":0,\"tid\":%d",
		quoteJSON(name), ts(startNS), ts(durNS), c.tid(proc))
	if args != "" {
		fmt.Fprintf(c.w, ",\"args\":%s", args)
	}
	c.w.WriteString("}")
}

func (c *chromeWriter) instant(name string, proc int32, atNS int64, args string) {
	c.sep()
	fmt.Fprintf(c.w, "{\"name\":%s,\"ph\":\"i\",\"ts\":%s,\"pid\":0,\"tid\":%d,\"s\":\"t\"",
		quoteJSON(name), ts(atNS), c.tid(proc))
	if args != "" {
		fmt.Fprintf(c.w, ",\"args\":%s", args)
	}
	c.w.WriteString("}")
}

func (c *chromeWriter) async(ph byte, name string, page int64, atNS int64, args string) {
	c.sep()
	fmt.Fprintf(c.w, "{\"name\":%s,\"cat\":\"page\",\"ph\":\"%c\",\"ts\":%s,\"pid\":0,\"tid\":0,\"id\":\"page%d\"",
		quoteJSON(name), ph, ts(atNS), page)
	if args != "" {
		fmt.Fprintf(c.w, ",\"args\":%s", args)
	}
	c.w.WriteString("}")
}

// quoteJSON escapes a string as a JSON string literal. Labels are plain
// ASCII action and thread names, but escape defensively anyway.
func quoteJSON(s string) string {
	var b strings.Builder
	b.WriteByte('"')
	for i := 0; i < len(s); i++ {
		ch := s[i]
		switch {
		case ch == '"' || ch == '\\':
			b.WriteByte('\\')
			b.WriteByte(ch)
		case ch < 0x20:
			fmt.Fprintf(&b, "\\u%04x", ch)
		default:
			b.WriteByte(ch)
		}
	}
	b.WriteByte('"')
	return b.String()
}
