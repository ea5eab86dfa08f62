package harness

import (
	"fmt"
	"sort"
	"strings"

	"numasim/internal/metrics"
	"numasim/internal/sim"
	"numasim/internal/topology"
)

// ---------------------------------------------------------------------
// Tournament: every policy in the zoo against every probe workload on
// every machine topology, ranked by the paper's primary metric (user
// time, the T_numa of §3.1). The grid is the capstone of the adaptive
// policy zoo: it shows where the paper's fixed Threshold wins (stable
// sharing patterns) and where the decaying and co-placement policies
// overtake it (skewed, phase-changing workloads).
// ---------------------------------------------------------------------

// TournamentPolicies are the policy specs entered in the tournament, in
// registry syntax; a fresh instance is parsed per run because policies
// carry state.
var TournamentPolicies = []string{
	"threshold",
	"neverpin",
	"reconsider",
	"freezedefrost",
	"decaythreshold",
	"bandit",
	"classifier",
	"coplace",
}

// TournamentWorkloads are the probe workloads, chosen to span the
// space: Gfetch (all shared fetches), IMatMult (read-mostly matrix),
// Phased (sharing pattern flips between phases), Zipf (skewed and
// phase-changing — the adaptive policies' home turf).
var TournamentWorkloads = []string{"Gfetch", "IMatMult", "Phased", "Zipf"}

// TournamentRow is one cell of the grid: one policy's showing on one
// workload on one topology.
type TournamentRow struct {
	Topology string
	Workload string
	Policy   string
	// Rank is the policy's 1-based position within its (topology,
	// workload) group, ranked by ascending user time (ties broken by
	// system time, then policy name).
	Rank      int
	UserSec   sim.Ticks
	SysSec    sim.Ticks
	LocalFrac float64
	Moves     uint64
	Pins      uint64
	// Hints counts the co-placement channel's accepted scheduler hints;
	// Migrations counts every thread migration, those the hints caused
	// and failovers off dead processors alike.
	Hints      uint64
	Migrations uint64
}

// LeaderRow is one policy's aggregate standing across the whole grid.
type LeaderRow struct {
	Policy   string
	Wins     int
	MeanRank float64
}

// TournamentResult carries the ranked grid plus the leaderboard.
type TournamentResult struct {
	Rows  []TournamentRow
	Board []LeaderRow
}

// Tournament runs the full policy × workload × topology grid. Each cell
// is an independent simulation on its own machine, fanned out over the
// options' parallelism; the ranked output is byte-identical at every
// setting.
func Tournament(opts Options) (TournamentResult, error) {
	return tournamentGrid(opts, topology.Names(), TournamentWorkloads, TournamentPolicies)
}

// tournamentGrid runs the tournament over an explicit grid (the tests
// use reduced grids to keep runtimes sane).
func tournamentGrid(opts Options, topos, works, pols []string) (TournamentResult, error) {
	opts = opts.withDefaults()

	type cell struct {
		topo, workload, spec string
	}
	var cells []cell
	for _, t := range topos {
		for _, w := range works {
			for _, p := range pols {
				cells = append(cells, cell{t, w, p})
			}
		}
	}

	results := make([]metrics.RunResult, len(cells))
	err := opts.pool().Run(len(cells), func(i int) error {
		c := cells[i]
		o := opts
		o.Policy, o.Topology = c.spec, c.topo
		res, err := o.run(fmt.Sprintf("tournament/%s/%s/%s", c.topo, c.workload, c.spec), c.workload, nil)
		if err != nil {
			return fmt.Errorf("tournament %s/%s/%s: %w", c.topo, c.workload, c.spec, err)
		}
		results[i] = res
		return nil
	})
	if err != nil {
		return TournamentResult{}, err
	}

	rows := make([]TournamentRow, len(cells))
	for i, c := range cells {
		res := results[i]
		rows[i] = TournamentRow{
			Topology:   c.topo,
			Workload:   c.workload,
			Policy:     res.Policy,
			UserSec:    res.UserSec,
			SysSec:     res.SysSec,
			LocalFrac:  res.Refs.LocalFraction(),
			Moves:      res.NUMA.Moves,
			Pins:       res.NUMA.Pins,
			Hints:      res.Sched.HintsAccepted,
			Migrations: res.Sched.Migrations,
		}
	}

	// Rank within each (topology, workload) group. The cell list is
	// grouped by construction: consecutive runs of len(pols).
	group := len(pols)
	for start := 0; start < len(rows); start += group {
		g := rows[start : start+group]
		sort.SliceStable(g, func(a, b int) bool {
			if g[a].UserSec != g[b].UserSec {
				return g[a].UserSec < g[b].UserSec
			}
			if g[a].SysSec != g[b].SysSec {
				return g[a].SysSec < g[b].SysSec
			}
			return g[a].Policy < g[b].Policy
		})
		for i := range g {
			g[i].Rank = i + 1
		}
	}

	return TournamentResult{Rows: rows, Board: leaderboard(rows)}, nil
}

// leaderboard aggregates ranks per policy across the grid.
func leaderboard(rows []TournamentRow) []LeaderRow {
	sums := map[string]*LeaderRow{}
	counts := map[string]int{}
	var order []string
	for _, r := range rows {
		lr, ok := sums[r.Policy]
		if !ok {
			lr = &LeaderRow{Policy: r.Policy}
			sums[r.Policy] = lr
			order = append(order, r.Policy)
		}
		if r.Rank == 1 {
			lr.Wins++
		}
		lr.MeanRank += float64(r.Rank)
		counts[r.Policy]++
	}
	board := make([]LeaderRow, 0, len(order))
	for _, name := range order {
		lr := *sums[name]
		lr.MeanRank /= float64(counts[name])
		board = append(board, lr)
	}
	sort.SliceStable(board, func(a, b int) bool {
		if board[a].MeanRank != board[b].MeanRank {
			return board[a].MeanRank < board[b].MeanRank
		}
		return board[a].Policy < board[b].Policy
	})
	return board
}

// Render formats the ranked grid, one table per (topology, workload)
// group, followed by the leaderboard.
func (r TournamentResult) Render() string {
	var b strings.Builder
	b.WriteString("Policy tournament: every policy x every workload x every topology,\n")
	b.WriteString("ranked by user time (the paper's T_numa, §3.1)\n")
	headers := []string{"rank", "policy", "Tuser", "Tsys", "local refs", "moves", "pins", "hints", "migr"}
	for start := 0; start < len(r.Rows); {
		end := start
		for end < len(r.Rows) &&
			r.Rows[end].Topology == r.Rows[start].Topology &&
			r.Rows[end].Workload == r.Rows[start].Workload {
			end++
		}
		fmt.Fprintf(&b, "\n%s / %s\n", r.Rows[start].Topology, r.Rows[start].Workload)
		var body [][]string
		for _, row := range r.Rows[start:end] {
			body = append(body, []string{
				fmt.Sprintf("%d", row.Rank), row.Policy,
				fmtF(row.UserSec, 4), fmtF(row.SysSec, 4), fmtF(row.LocalFrac, 3),
				fmt.Sprintf("%d", row.Moves), fmt.Sprintf("%d", row.Pins),
				fmt.Sprintf("%d", row.Hints), fmt.Sprintf("%d", row.Migrations),
			})
		}
		b.WriteString(renderTable(headers, body))
		start = end
	}
	b.WriteString("\nLeaderboard (wins and mean rank across the grid)\n")
	var body [][]string
	for _, lr := range r.Board {
		body = append(body, []string{lr.Policy, fmt.Sprintf("%d", lr.Wins), fmtF(lr.MeanRank, 2)})
	}
	b.WriteString(renderTable([]string{"policy", "wins", "mean rank"}, body))
	return b.String()
}

// RenderCSV formats the grid as one machine-readable table.
func (r TournamentResult) RenderCSV() string {
	var b strings.Builder
	b.WriteString("topology,workload,rank,policy,tuser,tsys,localfrac,moves,pins,hints,migrations\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%s,%s,%d,%s,%s,%s,%s,%d,%d,%d,%d\n",
			row.Topology, row.Workload, row.Rank, row.Policy,
			fmtF(row.UserSec, 4), fmtF(row.SysSec, 4), fmtF(row.LocalFrac, 3),
			row.Moves, row.Pins, row.Hints, row.Migrations)
	}
	return b.String()
}
