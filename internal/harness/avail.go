package harness

import (
	"fmt"
	"strings"

	"numasim/internal/chaos"
	"numasim/internal/sim"
	"numasim/internal/topology"
)

// ---------------------------------------------------------------------
// Availability: the paper's machines were assumed healthy; this
// experiment is not. Each application runs through a set of failure
// schedules — a single permanent node loss, a rolling loss that takes
// nodes down and back one after another, and a link brownout — and is
// compared against its healthy run. The degradation ratio (total time
// under the schedule over healthy total time) shows how gracefully the
// evacuation protocol, the scheduler failover and the rerouted
// interconnect absorb the loss; the protocol audit and the repro-bundle
// machinery ride along like in every other experiment, so a violation
// under failure produces a bundle, not a bare panic.
// ---------------------------------------------------------------------

// availSchedule is one named failure schedule. The zero schedule (no
// events) is the healthy baseline every ratio is measured against.
type availSchedule struct {
	name string
	// linked marks schedules that reference interconnect links by name;
	// they are dropped on topologies without those links (the ACE has no
	// modelled interconnect).
	linked bool
	events []chaos.HealthEvent
}

// availSchedules builds the sweep's failure schedules. Virtual times are
// early in the run so even the reduced-size workloads live through every
// transition.
func availSchedules() []availSchedule {
	const ms = sim.Millisecond
	return []availSchedule{
		{name: "healthy"},
		{name: "single-loss", events: []chaos.HealthEvent{
			{At: 2 * ms, Kind: chaos.NodeOffline, Node: 1},
		}},
		{name: "rolling-loss", events: []chaos.HealthEvent{
			{At: 2 * ms, Kind: chaos.NodeOffline, Node: 1},
			{At: 8 * ms, Kind: chaos.NodeOnline, Node: 1},
			{At: 10 * ms, Kind: chaos.NodeOffline, Node: 2},
			{At: 16 * ms, Kind: chaos.NodeOnline, Node: 2},
			{At: 18 * ms, Kind: chaos.NodeOffline, Node: 3},
			{At: 24 * ms, Kind: chaos.NodeOnline, Node: 3},
		}},
		{name: "link-brownout", linked: true, events: []chaos.HealthEvent{
			{At: 1 * ms, Kind: chaos.LinkDegrade, Link: "node0-node1", Factor: 8},
			{At: 5 * ms, Kind: chaos.LinkSever, Link: "node0-node2"},
			{At: 15 * ms, Kind: chaos.LinkRestore, Link: "node0-node2"},
			{At: 20 * ms, Kind: chaos.LinkRestore, Link: "node0-node1"},
		}},
	}
}

// AvailRow is one point of the availability sweep. Times are virtual
// seconds (sim.Ticks).
type AvailRow struct {
	App      string
	Schedule string
	Tuser    sim.Ticks
	Tsys     sim.Ticks
	// Degradation is total run time (user+sys) relative to the same
	// application's healthy row.
	Degradation float64
	// LocalFrac is the measured fraction of references served locally.
	LocalFrac float64
	// Degraded-mode protocol counters for the run.
	Evacuations, EvacRetries, EvacFallbacks uint64
	// Failovers counts threads moved off dead processors by the
	// scheduler.
	Failovers uint64
	// Err carries a failed run's summary when the sweep continues past
	// failures (partial results).
	Err string
}

// AvailabilityApps are the applications the sweep measures by default:
// the paper's Table 3 mix plus the Zipf policy probe.
var AvailabilityApps = append(append([]string{}, Table3Apps...), "Zipf")

// AvailabilitySweep runs every listed application through every failure
// schedule. The machine defaults to the four-socket topology (the sweep
// needs more than one node to lose, and the ACE models no interconnect);
// an explicit opts.Topology overrides it, dropping the link-brownout
// schedule when the topology has no "node0-node1" link. All (app,
// schedule) pairs run concurrently (bounded by opts.Parallelism); each
// is an independent deterministic simulation, so the table is
// byte-identical at every setting. An empty apps slice selects
// AvailabilityApps.
func AvailabilitySweep(opts Options, apps []string) ([]AvailRow, error) {
	opts = opts.withDefaults()
	if opts.Topology == "" {
		opts.Topology = "4socket"
	}
	if len(apps) == 0 {
		apps = AvailabilityApps
	}
	spec, err := topology.ByName(opts.Topology, opts.NProc)
	if err != nil {
		return nil, fmt.Errorf("availability sweep: %w", err)
	}
	if spec.NNodes() < 4 {
		return nil, fmt.Errorf("availability sweep: topology %s has %d nodes; the schedules fail nodes 1-3",
			spec.Name(), spec.NNodes())
	}
	schedules := availSchedules()
	if _, ok := spec.LinkIndex("node0-node1"); !ok {
		kept := schedules[:0]
		for _, s := range schedules {
			if !s.linked {
				kept = append(kept, s)
			}
		}
		schedules = kept
	}
	rows, err := partial(opts, len(apps)*len(schedules), func(i int) (AvailRow, error) {
		app, sc := apps[i/len(schedules)], schedules[i%len(schedules)]
		label := fmt.Sprintf("avail-%s-%s", app, sc.name)
		o := opts
		o.Chaos.Health = append(append([]chaos.HealthEvent{}, opts.Chaos.Health...), sc.events...)
		res, err := o.run(label, app, nil)
		if err != nil {
			return AvailRow{}, fmt.Errorf("availability sweep %s under %s: %w", app, sc.name, err)
		}
		return AvailRow{
			App: app, Schedule: sc.name,
			Tuser: res.UserSec, Tsys: res.SysSec,
			LocalFrac:   res.Refs.LocalFraction(),
			Evacuations: res.NUMA.Evacuations, EvacRetries: res.NUMA.EvacRetries,
			EvacFallbacks: res.NUMA.EvacFallbacks,
			Failovers:     res.Sched.Failovers,
		}, nil
	}, func(i int, err error) AvailRow {
		return AvailRow{App: apps[i/len(schedules)], Schedule: schedules[i%len(schedules)].name, Err: err.Error()}
	})
	if err != nil {
		return nil, err
	}
	// Each application's rows are contiguous and lead with its healthy
	// baseline.
	for a := 0; a < len(apps); a++ {
		base := rows[a*len(schedules)].Tuser + rows[a*len(schedules)].Tsys
		for s := 0; s < len(schedules); s++ {
			r := &rows[a*len(schedules)+s]
			if base > 0 && r.Err == "" {
				r.Degradation = float64((r.Tuser + r.Tsys) / base)
			}
		}
	}
	return rows, nil
}

// RenderAvail formats an availability sweep.
func RenderAvail(rows []AvailRow) string {
	headers := []string{"app", "schedule", "Tuser", "Tsys", "degradation", "local refs",
		"evacuations", "retries", "fallbacks", "failovers"}
	var body [][]string
	var fails []failedRun
	for _, r := range rows {
		if r.Err != "" {
			fails = append(fails, failedRun{fmt.Sprintf("%s@%s", r.App, r.Schedule), r.Err})
			continue
		}
		body = append(body, []string{
			r.App, r.Schedule, fmtF(r.Tuser, 3), fmtF(r.Tsys, 3),
			fmtF(r.Degradation, 2) + "x", fmtF(r.LocalFrac, 3),
			fmt.Sprintf("%d", r.Evacuations), fmt.Sprintf("%d", r.EvacRetries),
			fmt.Sprintf("%d", r.EvacFallbacks), fmt.Sprintf("%d", r.Failovers),
		})
	}
	return "Availability: degradation under failure schedules (vs healthy baseline)\n" +
		renderTable(headers, body) + renderFailures(fails)
}

// RenderAvailCSV renders an availability sweep as CSV.
func RenderAvailCSV(rows []AvailRow) string {
	var b strings.Builder
	b.WriteString("app,schedule,user_sec,sys_sec,degradation,local_frac,evacuations,evac_retries,evac_fallbacks,failovers\n")
	for _, r := range rows {
		if r.Err != "" {
			continue
		}
		fmt.Fprintf(&b, "%s,%s,%.6f,%.6f,%.4f,%.4f,%d,%d,%d,%d\n",
			r.App, r.Schedule, r.Tuser, r.Tsys, r.Degradation, r.LocalFrac,
			r.Evacuations, r.EvacRetries, r.EvacFallbacks, r.Failovers)
	}
	return b.String()
}
