// Command traceview analyses the traces acesim writes, auto-detecting the
// format:
//
//   - a binary reference trace from `acesim -traceout FILE` (per-page
//     read/write sharing): overall sharing classes, the busiest pages, and
//     the falsely-shared pages that application tuning (§4.2) could fix;
//   - a Chrome trace-event JSON file from `acesim -trace-out FILE` (the
//     structured simtrace event stream): event counts by phase and name,
//     per-track busy time, and the pages with the most consistency-state
//     changes. The same file loads graphically at ui.perfetto.dev.
//
// Usage:
//
//	traceview [-top N] FILE
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"numasim/internal/trace"
)

// run is the testable entry point: it parses args (without the program
// name) and returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("traceview", flag.ContinueOnError)
	fs.SetOutput(stderr)
	top := fs.Int("top", 10, "number of busiest pages to list")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: traceview [-top N] FILE")
		fmt.Fprintln(stderr, "  FILE is a binary reference trace (acesim -traceout)")
		fmt.Fprintln(stderr, "  or a Chrome trace-event JSON file (acesim -trace-out)")
		return 2
	}
	f, err := os.Open(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(stderr, "traceview:", err)
		return 1
	}
	defer f.Close()

	br := bufio.NewReader(f)
	magic, err := br.Peek(1)
	if err != nil {
		fmt.Fprintln(stderr, "traceview:", err)
		return 1
	}
	if magic[0] == '{' || magic[0] == '[' {
		err = viewChrome(br, stdout, *top)
	} else {
		err = viewRefTrace(br, stdout, *top)
	}
	if err != nil {
		fmt.Fprintln(stderr, "traceview:", err)
		return 1
	}
	return 0
}

// viewRefTrace reports on a binary reference trace (acesim -traceout).
func viewRefTrace(r io.Reader, stdout io.Writer, top int) error {
	c, err := trace.Load(r)
	if err != nil {
		return err
	}
	fmt.Fprint(stdout, c.Summarize().Render())
	pages := c.Pages()
	sort.Slice(pages, func(i, j int) bool {
		return pages[i].Reads+pages[i].Writes > pages[j].Reads+pages[j].Writes
	})
	if len(pages) > top {
		pages = pages[:top]
	}
	fmt.Fprintf(stdout, "\nbusiest %d pages:\n", len(pages))
	fmt.Fprintf(stdout, "  %-10s %-16s %7s %7s %9s %9s %s\n",
		"page", "class", "readers", "writers", "reads", "writes", "")
	for _, p := range pages {
		note := ""
		if p.FalselyShared {
			note = "FALSELY SHARED — consider padding/segregating (§4.2)"
		}
		fmt.Fprintf(stdout, "  %#-10x %-16s %7d %7d %9d %9d %s\n",
			uint64(p.VPN)<<c.PageShift(), p.Class, p.Readers, p.Writers, p.Reads, p.Writes, note)
	}
	return nil
}

// chromeEvent is the subset of the trace-event schema the report uses.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Tid  int            `json:"tid"`
	ID   string         `json:"id"`
	Args map[string]any `json:"args"`
}

// viewChrome reports on a Chrome trace-event JSON file (acesim -trace-out).
func viewChrome(r io.Reader, stdout io.Writer, top int) error {
	var doc struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.NewDecoder(r).Decode(&doc); err != nil {
		return fmt.Errorf("parsing Chrome trace JSON: %w", err)
	}

	trackName := map[int]string{}
	byName := map[string]int{}
	busy := map[int]float64{} // per-tid µs occupied by complete events
	changes := map[string]int{}
	var spans, instants, metas, asyncs int
	var firstTS, lastTS float64
	sawTS := false
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "M":
			metas++
			if ev.Name == "thread_name" {
				if n, ok := ev.Args["name"].(string); ok {
					trackName[ev.Tid] = n
				}
			}
			continue
		case "X":
			spans++
			busy[ev.Tid] += ev.Dur
			byName[ev.Name]++
		case "i":
			instants++
			byName[ev.Name]++
		case "b", "e", "n":
			asyncs++
			if ev.Ph == "n" {
				changes[ev.ID]++
			}
		default:
			byName[ev.Ph+":"+ev.Name]++
		}
		if !sawTS || ev.Ts < firstTS {
			firstTS = ev.Ts
		}
		if !sawTS || ev.Ts+ev.Dur > lastTS {
			lastTS = ev.Ts + ev.Dur
			sawTS = true
		}
	}

	fmt.Fprintf(stdout, "Chrome trace-event stream: %d events (%d spans, %d instants, %d page-track, %d metadata)\n",
		len(doc.TraceEvents), spans, instants, asyncs, metas)
	fmt.Fprintf(stdout, "  virtual span: %.3f ms\n", (lastTS-firstTS)/1000)

	fmt.Fprintln(stdout, "\nbusy virtual time per track:")
	tids := make([]int, 0, len(busy))
	//numalint:ordered tids is sorted below
	for tid := range busy {
		tids = append(tids, tid)
	}
	sort.Ints(tids)
	for _, tid := range tids {
		name := trackName[tid]
		if name == "" {
			name = fmt.Sprintf("tid%d", tid)
		}
		fmt.Fprintf(stdout, "  %-8s %12.3f ms\n", name, busy[tid]/1000)
	}

	fmt.Fprintln(stdout, "\nevent counts by name:")
	names := make([]string, 0, len(byName))
	//numalint:ordered names is sorted below
	for n := range byName {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool {
		if byName[names[i]] != byName[names[j]] {
			return byName[names[i]] > byName[names[j]]
		}
		return names[i] < names[j]
	})
	if len(names) > top {
		names = names[:top]
	}
	for _, n := range names {
		fmt.Fprintf(stdout, "  %-28s %9d\n", n, byName[n])
	}

	if len(changes) > 0 {
		ids := make([]string, 0, len(changes))
		//numalint:ordered ids is sorted below
		for id := range changes {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool {
			if changes[ids[i]] != changes[ids[j]] {
				return changes[ids[i]] > changes[ids[j]]
			}
			return ids[i] < ids[j]
		})
		if len(ids) > top {
			ids = ids[:top]
		}
		fmt.Fprintf(stdout, "\npages with the most consistency-state changes (top %d):\n", len(ids))
		for _, id := range ids {
			fmt.Fprintf(stdout, "  %-10s %6d state changes\n", id, changes[id])
		}
	}
	return nil
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}
