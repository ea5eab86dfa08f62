package sim

import (
	"fmt"
	"strings"
)

// ThreadDump is one thread's row in a StateDump.
type ThreadDump struct {
	ID        int
	Name      string
	State     State
	BlockedOn string // block reason, empty unless State is Blocked
	Clock     Time
	User      Time
	Sys       Time
	Resource  string // bound resource name, empty for unbound threads
}

// ResourceDump is one exclusive resource's row in a StateDump.
type ResourceDump struct {
	Name   string
	ID     int
	FreeAt Time
}

// DumpSection is an extra section of a state dump contributed by a
// subsystem outside the engine (for example the NUMA manager's directory
// summary). Sections render after the engine's own thread and resource
// tables, in registration order.
type DumpSection struct {
	Title string
	Body  string
}

// StateDump is a structured snapshot of the whole simulated machine:
// every thread's scheduling state and clocks, every bound resource, and
// any registered subsystem sections. The engine takes one whenever a run
// fails (Stop, deadlock, a thread's error or panic, stall), before it
// tears any thread down, and keeps it for FailureDump; callers can take
// one on demand with Engine.DumpState.
type StateDump struct {
	Now       Time // virtual-time frontier: the largest thread clock
	Threads   []ThreadDump
	Resources []ResourceDump
	Sections  []DumpSection
}

// AddDumpSection registers a callback that contributes a section to every
// future StateDump. Callbacks run only while the simulation is quiescent
// (no thread running), so they may read simulation state freely.
func (e *Engine) AddDumpSection(fn func() DumpSection) {
	e.dumpers = append(e.dumpers, fn)
}

// DumpState snapshots the machine. Threads appear in creation order and
// resources in first-binding order, so the dump is deterministic for a
// deterministic run.
func (e *Engine) DumpState() *StateDump {
	d := &StateDump{}
	seen := make(map[*Resource]bool)
	for _, t := range e.threads {
		td := ThreadDump{
			ID: t.id, Name: t.name, State: t.state, BlockedOn: t.blocked,
			Clock: t.clock, User: t.userTime(), Sys: t.sys,
		}
		if t.res != nil {
			td.Resource = t.res.Name
			if !seen[t.res] {
				seen[t.res] = true
				d.Resources = append(d.Resources, ResourceDump{
					Name: t.res.Name, ID: t.res.ID, FreeAt: t.res.freeAt,
				})
			}
		}
		if t.clock > d.Now {
			d.Now = t.clock
		}
		d.Threads = append(d.Threads, td)
	}
	for _, fn := range e.dumpers {
		d.Sections = append(d.Sections, fn())
	}
	return d
}

// FailureDump returns the machine-state dump the engine took when the run
// failed, before teardown finished any thread, or nil if the run has not
// failed.
func (e *Engine) FailureDump() *StateDump { return e.failure }

// Render formats the dump as the plain-text block written into repro
// bundles and failure reports.
func (d *StateDump) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== machine state at %v ===\n", d.Now)
	fmt.Fprintf(&b, "threads (%d):\n", len(d.Threads))
	for _, t := range d.Threads {
		fmt.Fprintf(&b, "  [%3d] %-16s %-8s clock=%-12v user=%-12v sys=%-12v",
			t.ID, t.Name, t.State, t.Clock, t.User, t.Sys)
		if t.Resource != "" {
			fmt.Fprintf(&b, " on %s", t.Resource)
		}
		if t.BlockedOn != "" {
			fmt.Fprintf(&b, " blocked on %q", t.BlockedOn)
		}
		b.WriteByte('\n')
	}
	if len(d.Resources) > 0 {
		fmt.Fprintf(&b, "resources (%d):\n", len(d.Resources))
		for _, r := range d.Resources {
			fmt.Fprintf(&b, "  %-8s free at %v\n", r.Name, r.FreeAt)
		}
	}
	for _, s := range d.Sections {
		fmt.Fprintf(&b, "--- %s ---\n%s", s.Title, s.Body)
		if !strings.HasSuffix(s.Body, "\n") {
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// DeadlockError reports total deadlock: no thread is runnable but blocked
// threads remain.
type DeadlockError struct {
	Blocked []string // "name(reason)" per blocked thread, sorted
}

func (e *DeadlockError) Error() string {
	return "sim: deadlock, blocked threads: " + strings.Join(e.Blocked, ", ")
}

// StallError reports a virtual-time stall: the engine kept dispatching
// runnable threads, but virtual time stopped advancing for StallLimit
// consecutive dispatches (a livelock, typically a thread yielding in a
// tight loop without charging any time).
type StallError struct {
	At         Time // the frozen virtual time
	Dispatches int  // consecutive dispatches without progress
}

func (e *StallError) Error() string {
	return fmt.Sprintf("sim: stall, %d consecutive dispatches without virtual-time progress at %v",
		e.Dispatches, e.At)
}

// StoppedError reports that the run was abandoned because Engine.Stop was
// called (typically by the harness's wall-clock watchdog).
type StoppedError struct{}

func (e *StoppedError) Error() string {
	return "sim: engine stopped by watchdog"
}
