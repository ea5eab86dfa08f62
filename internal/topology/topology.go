// Package topology parameterizes the simulated machine's memory shape: N
// memory nodes, the processors homed on them, a SLIT-style node-distance
// matrix (the Linux ACPI formulation: 10 is local, larger is farther),
// per-processor access-latency matrices derived from the distances, and a
// deterministic bandwidth/queueing model on the interconnect links so
// heavy remote traffic contends instead of paying a fixed latency.
//
// The package splits immutable description from mutable run state:
//
//   - Spec is the immutable shape — node count, home map, distance and
//     latency matrices, links and routes. A Spec is safe to share between
//     machines running concurrently: ByName returns one shared Spec per
//     shape and processor count, which every machine of that shape uses.
//   - Topology is the per-machine runtime — the per-link token-bucket
//     clocks and transfer counters. Each machine owns a fresh Topology,
//     so the parallel harness stays byte-identical at any -parallel.
//
// The ACE of the paper is the registered two-level special case: each
// processor is its own node, the latency matrix holds the paper's
// measured constants, and no link contends — so the published tables are
// byte-identical through this generalized path.
package topology

import (
	"fmt"
	"slices"
	"strings"

	"numasim/internal/sim"
)

// LocalDistance is the SLIT convention for a node's distance to itself.
const LocalDistance = 10

// MaxNodes bounds the node count (the fuzz suite draws 2..8; real SLITs
// go far higher, but the dense matrices are sized for simulation scale).
const MaxNodes = 64

// Link is one interconnect link. Links are unidirectionally modelled but
// carry traffic of both directions of their endpoint pair: the token
// bucket serializes all transfers routed over the link.
type Link struct {
	// Name identifies the link in reports ("node0-node1").
	Name string
	// A and B are the endpoint nodes. Every route is derived from them:
	// the fewest hops over the links, ties to the lowest link indices.
	A, B int
	// PerByte is the link's service time per byte transferred: the
	// token-bucket drain rate. 12ns/byte ≈ the ACE's 80 MB/s IPC bus.
	PerByte sim.Time
}

// Spec is an immutable machine shape. Build one with Custom or a named
// builder (ACE, FourSocket, Mesh8, ByName); the zero value is not a valid
// Spec.
type Spec struct {
	name   string
	nnodes int
	nprocs int

	// homeOf maps each processor to the node its local memory lives on;
	// nodeProcs is the inverse (node -> processors homed there), in
	// ascending processor order.
	homeOf    []int
	nodeProcs [][]int

	// dist is the flattened SLIT matrix, dist[a*nnodes+b]. ranked[a] is
	// every node ordered by ascending distance from a (ties by node id),
	// so ranked[a][0] == a.
	dist   []int
	ranked [][]int

	// fetch and store are the flattened per-processor access-latency
	// matrices, one row per processor, nnodes+1 columns: column n is node
	// n's memory, column nnodes is the interleaved ("global") memory.
	fetch []sim.Time
	store []sim.Time

	// links is the contended interconnect, empty on an uncontended spec.
	// routes is derived from it by routeTable, flattened (src*nnodes+dst
	// -> link indices along the path); a nil route means the pair
	// exchanges traffic without a modelled link.
	links  []Link
	routes [][]int
}

// Name returns the spec's registered name.
func (s *Spec) Name() string { return s.name }

// NNodes reports the number of memory nodes.
//
//numalint:hotpath
func (s *Spec) NNodes() int { return s.nnodes }

// NProcs reports the number of processors.
//
//numalint:hotpath
func (s *Spec) NProcs() int { return s.nprocs }

// Home reports the node processor proc's local memory lives on.
//
//numalint:hotpath
func (s *Spec) Home(proc int) int { return s.homeOf[proc] }

// NodeProcs returns the processors homed on node, in ascending order.
// The returned slice is the spec's own, shared by every machine of the
// shape, and nothing may write through it.
//
//numalint:hotpath
func (s *Spec) NodeProcs(node int) []int { return s.nodeProcs[node] }

// Col maps a frame's node to its latency-matrix column: node indices map
// to themselves, and any negative value (mem's convention for global
// frames) maps to the interleave column.
//
//numalint:hotpath
func (s *Spec) Col(node int) int {
	if node < 0 {
		return s.nnodes
	}
	return node
}

// FetchLatency returns the 32-bit fetch latency for processor proc
// against latency-matrix column col (a node index, or NNodes for the
// interleaved global memory).
//
//numalint:hotpath
func (s *Spec) FetchLatency(proc, col int) sim.Time {
	return s.fetch[proc*(s.nnodes+1)+col]
}

// StoreLatency returns the 32-bit store latency for processor proc
// against latency-matrix column col.
//
//numalint:hotpath
func (s *Spec) StoreLatency(proc, col int) sim.Time {
	return s.store[proc*(s.nnodes+1)+col]
}

// Routed reports whether a transfer between processor proc and
// latency-matrix column col reaches the link model: on a contended spec,
// every column but the processor's home node. The interleave column is
// no processor's home, so it is always routed there, and each transfer to
// it advances the round-robin cursor. For an unrouted pair ChargeTransfer
// returns 0 before it touches any link, cursor or counter, healthy or
// degraded, so a caller may skip the call.
func (s *Spec) Routed(proc, col int) bool {
	return len(s.links) > 0 && col != s.homeOf[proc]
}

// GOverL returns the G/L ratio of §2.2 for a reference mix with the given
// store fraction: processor 0's interleave-column latency over its home
// column's. On the ACE that is the paper's 2.3 for pure fetches and about
// 2 for a mix with 45% stores.
func (s *Spec) GOverL(storeFrac float64) float64 {
	home, global := s.homeOf[0], s.nnodes
	g := float64(s.FetchLatency(0, global))*(1-storeFrac) + float64(s.StoreLatency(0, global))*storeFrac
	l := float64(s.FetchLatency(0, home))*(1-storeFrac) + float64(s.StoreLatency(0, home))*storeFrac
	return g / l
}

// ScaleGlobal returns a copy of the spec whose interleave-column fetch
// and store latencies are multiplied by f (positive): the same machine
// with a different G/L ratio. The copy shares every other table with s,
// which is immutable.
func (s *Spec) ScaleGlobal(f float64) *Spec {
	c := *s
	c.fetch, c.store = slices.Clone(s.fetch), slices.Clone(s.store)
	for i := s.nnodes; i < len(c.fetch); i += s.nnodes + 1 {
		c.fetch[i] = sim.Time(float64(c.fetch[i]) * f)
		c.store[i] = sim.Time(float64(c.store[i]) * f)
	}
	return &c
}

// Dist returns the SLIT distance from node a to node b.
//
//numalint:hotpath
func (s *Spec) Dist(a, b int) int { return s.dist[a*s.nnodes+b] }

// validate checks the derived spec for structural consistency.
func (s *Spec) validate() error {
	if s.nnodes < 1 || s.nnodes > MaxNodes {
		return fmt.Errorf("topology %s: %d nodes outside [1, %d]", s.name, s.nnodes, MaxNodes)
	}
	if s.nprocs < 1 {
		return fmt.Errorf("topology %s: %d processors < 1", s.name, s.nprocs)
	}
	if len(s.homeOf) != s.nprocs {
		return fmt.Errorf("topology %s: home map covers %d of %d processors", s.name, len(s.homeOf), s.nprocs)
	}
	for p, n := range s.homeOf {
		if n < 0 || n >= s.nnodes {
			return fmt.Errorf("topology %s: cpu%d homed on bad node %d", s.name, p, n)
		}
	}
	for a := 0; a < s.nnodes; a++ {
		for b := 0; b < s.nnodes; b++ {
			d := s.dist[a*s.nnodes+b]
			if a == b && d != LocalDistance {
				return fmt.Errorf("topology %s: dist[%d][%d] = %d, want the SLIT local distance %d", s.name, a, b, d, LocalDistance)
			}
			if a != b && d <= LocalDistance {
				return fmt.Errorf("topology %s: remote dist[%d][%d] = %d not above the local distance %d", s.name, a, b, d, LocalDistance)
			}
		}
	}
	for i := 0; i < len(s.fetch); i++ {
		if s.fetch[i] <= 0 || s.store[i] <= 0 {
			return fmt.Errorf("topology %s: non-positive latency in matrix entry %d", s.name, i)
		}
	}
	for i, l := range s.links {
		if l.PerByte <= 0 {
			return fmt.Errorf("topology %s: link %d (%s) has non-positive per-byte service time", s.name, i, l.Name)
		}
	}
	return nil
}

// finish derives the inverse home map, the distance ranking and the
// healthy route table, then validates. Every constructor funnels
// through it.
func (s *Spec) finish() (*Spec, error) {
	s.nodeProcs = make([][]int, s.nnodes)
	for p, n := range s.homeOf {
		if n >= 0 && n < s.nnodes {
			s.nodeProcs[n] = append(s.nodeProcs[n], p)
		}
	}
	s.ranked = make([][]int, s.nnodes)
	for a := 0; a < s.nnodes; a++ {
		order := make([]int, s.nnodes)
		for b := range order {
			order[b] = b
		}
		// Insertion sort by (distance, id): deterministic and tiny.
		for i := 1; i < len(order); i++ {
			for j := i; j > 0; j-- {
				x, y := order[j-1], order[j]
				if s.dist[a*s.nnodes+x] > s.dist[a*s.nnodes+y] ||
					(s.dist[a*s.nnodes+x] == s.dist[a*s.nnodes+y] && x > y) {
					order[j-1], order[j] = y, x
				} else {
					break
				}
			}
		}
		s.ranked[a] = order
	}
	if len(s.links) > 0 {
		s.routes = s.routeTable(make([]bool, len(s.links)))
	}
	if err := s.validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// Custom builds a contention-capable spec from a SLIT distance matrix:
// latencies are derived as base × distance / 10 (integer nanosecond
// arithmetic), the interleave column is the integer mean of the node
// columns, and — when contended — one link per node pair with the given
// per-byte service time is generated, so every pair routes over its
// direct link. The fuzz suite feeds this random matrices; FourSocket is
// one call.
func Custom(name string, nprocs int, dist [][]int, baseFetch, baseStore sim.Time, contended bool, perByte sim.Time) (*Spec, error) {
	nnodes := len(dist)
	s := &Spec{name: name, nnodes: nnodes, nprocs: nprocs, homeOf: defaultHomes(nnodes, nprocs)}
	var err error
	if s.dist, err = flattenDist(name, nnodes, dist); err != nil {
		return nil, err
	}
	s.fetch = deriveLatencies(s, baseFetch)
	s.store = deriveLatencies(s, baseStore)
	if contended {
		for a := 0; a < nnodes; a++ {
			for b := a + 1; b < nnodes; b++ {
				s.addLink(a, b, perByte)
			}
		}
	}
	return s.finish()
}

// defaultHomes homes processor p on node p % nnodes.
func defaultHomes(nnodes, nprocs int) []int {
	h := make([]int, nprocs)
	for p := range h {
		h[p] = p % nnodes
	}
	return h
}

// flattenDist copies a square distance matrix into flat row-major form.
func flattenDist(name string, nnodes int, dist [][]int) ([]int, error) {
	if len(dist) != nnodes {
		return nil, fmt.Errorf("topology %s: distance matrix has %d rows, want %d", name, len(dist), nnodes)
	}
	flat := make([]int, nnodes*nnodes)
	for a, row := range dist {
		if len(row) != nnodes {
			return nil, fmt.Errorf("topology %s: distance row %d has %d entries, want %d", name, a, len(row), nnodes)
		}
		copy(flat[a*nnodes:], row)
	}
	return flat, nil
}

// deriveLatencies fills a latency matrix from the distance matrix: entry
// (p, n) is base × dist(home(p), n) / 10, and the interleave column is
// the integer mean over the node columns. All arithmetic is integer
// nanoseconds, so derived costs are exact and platform-independent.
func deriveLatencies(s *Spec, base sim.Time) []sim.Time {
	flat := make([]sim.Time, s.nprocs*(s.nnodes+1))
	for p := 0; p < s.nprocs; p++ {
		home := s.homeOf[p]
		var sum sim.Time
		for n := 0; n < s.nnodes; n++ {
			lat := base * sim.Time(s.dist[home*s.nnodes+n]) / LocalDistance
			flat[p*(s.nnodes+1)+n] = lat
			sum += lat
		}
		flat[p*(s.nnodes+1)+s.nnodes] = sum / sim.Time(s.nnodes)
	}
	return flat
}

// addLink appends a link between nodes a and b, named after them.
func (s *Spec) addLink(a, b int, perByte sim.Time) {
	s.links = append(s.links, Link{Name: fmt.Sprintf("node%d-node%d", a, b), A: a, B: b, PerByte: perByte})
}

// Describe renders the shape for Figure 1-style diagrams: nodes with
// their processors, the distance matrix, and the link set.
func (s *Spec) Describe() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s topology: %d nodes, %d processors\n\n", s.name, s.nnodes, s.nprocs)
	for n := 0; n < s.nnodes; n++ {
		fmt.Fprintf(&b, "  node%-2d cpus", n)
		for _, p := range s.nodeProcs[n] {
			fmt.Fprintf(&b, " %d", p)
		}
		if len(s.nodeProcs[n]) == 0 {
			b.WriteString(" (none)")
		}
		b.WriteString("\n")
	}
	b.WriteString("\n  distance matrix (SLIT, 10 = local):\n")
	for a := 0; a < s.nnodes; a++ {
		b.WriteString("   ")
		for bn := 0; bn < s.nnodes; bn++ {
			fmt.Fprintf(&b, " %3d", s.dist[a*s.nnodes+bn])
		}
		b.WriteString("\n")
	}
	if len(s.links) > 0 {
		fmt.Fprintf(&b, "\n  interconnect: %d links, contended (token-bucket per link)\n", len(s.links))
		for _, l := range s.links {
			fmt.Fprintf(&b, "    %-14s %v/byte\n", l.Name, l.PerByte)
		}
	} else {
		b.WriteString("\n  interconnect: uncontended (fixed latencies)\n")
	}
	return b.String()
}

// LinkStats is one link's accumulated traffic accounting.
type LinkStats struct {
	Name string
	// Xfers and Bytes count transfers routed over the link.
	Xfers uint64
	Bytes uint64
	// Service is the total token-bucket service time the transfers
	// consumed (Bytes × PerByte, conserved by construction); Waited is
	// the total queueing delay transfers paid because the link was busy.
	Service sim.Time
	Waited  sim.Time
}

// linkState is one link's mutable token-bucket clock and counters.
type linkState struct {
	busyUntil sim.Time
	xfers     uint64
	bytes     uint64
	service   sim.Time
	waited    sim.Time
}

// Topology is the per-machine runtime over a Spec: the link token
// buckets and the interleave round-robin cursor. A Topology belongs to
// exactly one machine (the single-threaded simulation loop mutates it);
// build a fresh one per machine and share only the Spec.
type Topology struct {
	spec  *Spec
	links []linkState
	rr    int

	// Degraded-mode runtime health. All nil/false until the first health
	// mutation (SetNodeHealth, SeverLink, DegradeLink): the healthy hot
	// path pays one bool check and nothing else, and a machine with no
	// failure schedule never allocates any of it.
	degraded bool
	nodeDown []bool
	severed  []bool     // links explicitly severed
	linkDown []bool     // severed OR an endpoint node is down
	perByte  []sim.Time // runtime per-link service time (degrade override)
	routes   [][]int    // runtime routes, derived anew after each health change
}

// New builds the runtime state for spec.
func New(spec *Spec) *Topology {
	return &Topology{spec: spec, links: make([]linkState, len(spec.links))}
}

// ChargeTransfer routes a transfer of bytes between processor proc's
// home node and latency-matrix column col at virtual time now. Each link
// on the route absorbs the transfer's service time into its token-bucket
// clock; the returned value is the queueing delay the transfer waited on
// busy links, which the caller charges on top of the base latency (the
// base latency already covers the uncontended transfer). Local traffic
// and uncontended specs, the pairs Spec.Routed rejects, wait nothing and
// change no state; pairs without a modelled route wait nothing. Column
// NNodes (the interleaved global memory) is resolved to a target node by
// a deterministic round-robin cursor.
//
//numalint:hotpath
func (t *Topology) ChargeTransfer(now sim.Time, proc, col, bytes int) sim.Time {
	s := t.spec
	if len(s.links) == 0 {
		return 0
	}
	src := s.homeOf[proc]
	dst := col
	if dst == s.nnodes {
		if t.degraded {
			dst = t.nextInterleave()
		} else {
			dst = t.rr
			t.rr++
			if t.rr == s.nnodes {
				t.rr = 0
			}
		}
	}
	if dst == src {
		return 0
	}
	if t.degraded {
		return t.chargeDegraded(now, t.routes[src*s.nnodes+dst], bytes)
	}
	route := s.routes[src*s.nnodes+dst]
	var wait sim.Time
	for _, li := range route {
		ls := &t.links[li]
		service := sim.Time(bytes) * s.links[li].PerByte
		if ls.busyUntil > now {
			d := ls.busyUntil - now
			wait += d
			ls.waited += d
		} else {
			ls.busyUntil = now
		}
		ls.busyUntil += service
		ls.xfers++
		ls.bytes += uint64(bytes)
		ls.service += service
	}
	return wait
}

// LinkStats snapshots every link's traffic accounting, in link order.
// It returns nil for uncontended topologies, so reports can gate on it.
func (t *Topology) LinkStats() []LinkStats {
	if len(t.links) == 0 {
		return nil
	}
	out := make([]LinkStats, len(t.links))
	for i := range t.links {
		ls := &t.links[i]
		out[i] = LinkStats{
			Name: t.spec.links[i].Name, Xfers: ls.xfers, Bytes: ls.bytes,
			Service: ls.service, Waited: ls.waited,
		}
	}
	return out
}
