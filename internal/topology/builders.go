package topology

import (
	"fmt"

	"numasim/internal/sim"
)

// The ACE's measured 32-bit reference latencies (§2.2 of the paper).
// Remote references, one processor into another's local memory (§4.4),
// are supported by the ACE but deliberately unused by the paper's
// system; they are modelled for the remote-reference extension
// experiment.
const (
	aceLocalFetch  = 650 * sim.Nanosecond
	aceLocalStore  = 840 * sim.Nanosecond
	aceGlobalFetch = 1500 * sim.Nanosecond
	aceGlobalStore = 1400 * sim.Nanosecond
	aceRemoteFetch = 1800 * sim.Nanosecond
	aceRemoteStore = 1700 * sim.Nanosecond
)

// ACE builds the paper's two-level machine as a topology spec: one node
// per processor (each processor's local memory is its own node), the
// interleave column holding the global-memory latencies, every other
// node at remote latency, and no contended links — the IPC bus is
// modelled, as in the paper, by the fixed global latencies alone. The
// distance matrix is derived from the fetch-latency ratios so
// distance-ranked placement degrades exactly as the measured machine
// does.
func ACE(nprocs int) (*Spec, error) {
	n := nprocs
	s := &Spec{name: "ace", nnodes: n, nprocs: nprocs, homeOf: make([]int, nprocs),
		dist: make([]int, n*n), fetch: make([]sim.Time, nprocs*(n+1)), store: make([]sim.Time, nprocs*(n+1))}
	// Remote distance from the remote/local fetch ratio (1800/650 → 27).
	const remoteDist = int(aceRemoteFetch * LocalDistance / aceLocalFetch)
	for p := 0; p < nprocs; p++ {
		s.homeOf[p] = p
		row := p * (n + 1)
		for node := 0; node < n; node++ {
			if node == p {
				s.dist[p*n+node] = LocalDistance
				s.fetch[row+node], s.store[row+node] = aceLocalFetch, aceLocalStore
			} else {
				s.dist[p*n+node] = remoteDist
				s.fetch[row+node], s.store[row+node] = aceRemoteFetch, aceRemoteStore
			}
		}
		s.fetch[row+n], s.store[row+n] = aceGlobalFetch, aceGlobalStore
	}
	return s.finish()
}

// FourSocket builds a 4-socket fully-connected machine: SLIT distance 16
// between any two sockets (one hop over a point-to-point link), local
// latencies matching the ACE's measured local memory, and a contended
// link per socket pair at 12ns/byte (≈80 MB/s, the ACE's IPC bus rate).
// Processors are homed round-robin across the sockets.
func FourSocket(nprocs int) (*Spec, error) {
	const sockets = 4
	dist := make([][]int, sockets)
	for a := range dist {
		dist[a] = make([]int, sockets)
		for b := range dist[a] {
			if a == b {
				dist[a][b] = LocalDistance
			} else {
				dist[a][b] = 16
			}
		}
	}
	return Custom("4socket", nprocs, dist, aceLocalFetch, aceLocalStore, true, 12*sim.Nanosecond)
}

// Mesh8 builds an 8-node 2x4 mesh: SLIT distance 10 + 6 per hop of
// Manhattan routing, latencies derived from the distances, and a
// contended link per mesh edge (10 links) with deterministic XY routing
// (traverse the row first, then the column).
func Mesh8(nprocs int) (*Spec, error) {
	const rows, cols = 2, 4
	const nnodes = rows * cols
	s := &Spec{name: "mesh8", nnodes: nnodes, nprocs: nprocs, homeOf: defaultHomes(nnodes, nprocs),
		dist: make([]int, nnodes*nnodes)}
	for a := 0; a < nnodes; a++ {
		for b := 0; b < nnodes; b++ {
			s.dist[a*nnodes+b] = LocalDistance + 6*manhattan(a, b, cols)
		}
	}
	s.fetch = deriveLatencies(s, aceLocalFetch)
	s.store = deriveLatencies(s, aceLocalStore)
	s.contended = true
	s.links, s.routes = meshLinks(rows, cols, 12*sim.Nanosecond)
	return s.finish()
}

// manhattan counts mesh hops between nodes a and b on a cols-wide grid.
func manhattan(a, b, cols int) int {
	ar, ac := a/cols, a%cols
	br, bc := b/cols, b%cols
	dr, dc := ar-br, ac-bc
	if dr < 0 {
		dr = -dr
	}
	if dc < 0 {
		dc = -dc
	}
	return dr + dc
}

// meshLinks builds one link per mesh edge and XY (row-first) routes.
func meshLinks(rows, cols int, perByte sim.Time) ([]Link, [][]int) {
	nnodes := rows * cols
	var links []Link
	// edge[a*nnodes+b] is the link index for adjacent nodes a, b.
	edge := make([]int, nnodes*nnodes)
	addEdge := func(a, b int) {
		edge[a*nnodes+b] = len(links)
		edge[b*nnodes+a] = len(links)
		links = append(links, Link{Name: fmt.Sprintf("node%d-node%d", a, b), A: a, B: b, PerByte: perByte})
	}
	for r := 0; r < rows; r++ {
		for c := 0; c < cols-1; c++ {
			addEdge(r*cols+c, r*cols+c+1)
		}
	}
	for c := 0; c < cols; c++ {
		for r := 0; r < rows-1; r++ {
			addEdge(r*cols+c, (r+1)*cols+c)
		}
	}
	routes := make([][]int, nnodes*nnodes)
	for a := 0; a < nnodes; a++ {
		for b := 0; b < nnodes; b++ {
			if a == b {
				continue
			}
			var path []int
			cur := a
			// Row first: walk along a's row to b's column...
			for cur%cols != b%cols {
				next := cur + 1
				if b%cols < cur%cols {
					next = cur - 1
				}
				path = append(path, edge[cur*nnodes+next])
				cur = next
			}
			// ...then down the column.
			for cur/cols != b/cols {
				next := cur + cols
				if b/cols < cur/cols {
					next = cur - cols
				}
				path = append(path, edge[cur*nnodes+next])
				cur = next
			}
			routes[a*nnodes+b] = path
		}
	}
	return links, routes
}

// builders is every machine shape -topology can name, the paper's ACE
// first. ByName and Names read it.
var builders = []struct {
	name  string
	build func(nprocs int) (*Spec, error)
}{
	{"ace", ACE},
	{"4socket", FourSocket},
	{"mesh8", Mesh8},
}

// ByName builds the topology named name for nprocs processors; the empty
// name selects the ACE.
func ByName(name string, nprocs int) (*Spec, error) {
	if name == "" {
		name = "ace"
	}
	for _, b := range builders {
		if b.name == name {
			return b.build(nprocs)
		}
	}
	return nil, fmt.Errorf("topology: unknown topology %q (have: %v)", name, Names())
}

// Names lists the topology names ByName accepts, the default ACE first.
func Names() []string {
	names := make([]string, len(builders))
	for i, b := range builders {
		names[i] = b.name
	}
	return names
}
