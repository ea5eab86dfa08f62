package numa

// This file is the manager's degraded-mode machinery: the evacuation
// protocol that drains a failing node's local memory onto the survivors,
// the quarantine that keeps placements off offline nodes, and the
// revival path that returns a node to service cold.
//
// When the health driver marks a node failing (FailNode), every page with
// a copy there is evacuated synchronously, in directory order, through a
// bounded work queue: read-only replicas are simply dropped (the global
// frame is authoritative), remote placements are demoted home-to-global,
// and the local-writable authority migrates to the nearest surviving
// node with room — backing off exponentially under destination pressure
// (surfaced as Stats.EvacRetries) and falling back to a sync-to-global
// when no survivor can take the copy (Stats.EvacFallbacks). Only then,
// with its frame pool empty, is the node marked down in the topology's
// node mask, and quarantined: any LOCAL or remote placement aimed at it
// is demoted until ReviveNode.
//
// Inertness: offlineSeen stays nil until the first FailNode, so a run
// with no failure schedule pays one nil check per fault and allocates
// none of this.

import (
	"numasim/internal/sim"
	"numasim/internal/simtrace"
)

// Evacuation tuning: the work queue is bounded (the directory is
// rescanned until no copies remain on the failing node), and destination
// pressure is waited out with the same exponential-backoff shape as the
// chaos retry path.
const (
	evacBatch      = 64
	evacMaxRetries = 3
	evacBackoff    = 200 * sim.Microsecond
)

// degradeOffline demotes placement answers aimed at quarantined nodes:
// a LOCAL answer for a faulting processor homed on an offline node, or a
// remote placement whose home node is offline, proceeds against global
// memory instead. Called from Access only once a node has failed.
func (n *Manager) degradeOffline(pg *Page, loc Location, node int) Location {
	topo := n.machine.Topo()
	if loc == Local && topo.NodeDown(node) {
		return Global
	}
	if loc == PlaceRemote && pg.home >= 0 && topo.ProcDown(pg.home) {
		return Global
	}
	return loc
}

// FailNode evacuates node and then takes it down: every page copy
// resident there is migrated or dropped, the frame pool drains to empty,
// and only then does the topology mark the node down, which quarantines
// it until ReviveNode and reroutes the interconnect around it. The
// protocol work is charged to th as system time. It returns the number
// of page copies evacuated; failing an already offline node does nothing.
func (n *Manager) FailNode(th *sim.Thread, node int) int {
	n.now = th.Clock()
	if node < 0 || node >= n.machine.NNodes() {
		panic(n.violation(nil, "numa: FailNode on bad node %d", node))
	}
	if n.machine.Topo().NodeDown(node) {
		return 0
	}
	if n.offlineSeen == nil {
		n.offlineSeen = make([]bool, n.machine.NNodes())
		n.evacQueue = make([]*Page, 0, evacBatch)
	}
	evacuated := n.evacuateNode(th, node)
	// The pool must have drained: a frame still allocated after
	// evacuation would be unreachable for the rest of the quarantine.
	pool := n.machine.Memory().Local(node)
	if pool.Free() != pool.Size() {
		panic(n.violation(nil, "numa: node%d pool holds %d frames after evacuation",
			node, pool.Size()-pool.Free()))
	}
	n.machine.Topo().SetNodeHealth(node, false)
	return evacuated
}

// ReviveNode returns an offline node to service. The node starts cold:
// its residency shard must be empty and its pool fully free (evacuation
// left it so, and the quarantine kept it so), its reference bits and
// clock hand are reset, the auditor's monotonicity shadow is cleared, and
// then the topology marks the node up. Reviving an online node does
// nothing.
func (n *Manager) ReviveNode(th *sim.Thread, node int) {
	n.now = th.Clock()
	if node < 0 || node >= n.machine.NNodes() {
		panic(n.violation(nil, "numa: ReviveNode on bad node %d", node))
	}
	if !n.machine.Topo().NodeDown(node) {
		return
	}
	shard := &n.shards[node]
	for i, pg := range shard.resident {
		if pg != nil {
			panic(n.violation(pg, "numa: revived node%d has stale residency at frame %d", node, i))
		}
		shard.refbit[i] = false
	}
	shard.hand = 0
	pool := n.machine.Memory().Local(node)
	if pool.Free() != pool.Size() {
		panic(n.violation(nil, "numa: revived node%d pool holds %d allocated frames",
			node, pool.Size()-pool.Free()))
	}
	n.offlineSeen[node] = false
	n.machine.Topo().SetNodeHealth(node, true)
}

// evacuateNode drains every page copy off node through the bounded work
// queue: scan the directory for up to evacBatch pages holding a copy
// there, evacuate them, rescan. The rescan makes the queue bound safe —
// evacuating one page can cascade (a migration may reclaim on a
// survivor) but never adds copies to the failing node, so the loop
// strictly drains.
func (n *Manager) evacuateNode(th *sim.Thread, node int) int {
	total := 0
	for {
		q := n.evacQueue[:0]
		_ = n.dir.forEach(func(pg *Page) error {
			if len(q) < evacBatch && pg.copies[node] != nil {
				q = append(q, pg)
			}
			return nil
		})
		n.evacQueue = q
		if len(q) == 0 {
			return total
		}
		for _, pg := range q {
			n.evacuatePage(th, pg, node)
			total++
		}
	}
}

// evacuatePage removes pg's copy from the failing node. Read-only
// replicas are dropped; a remote placement homed there is demoted to
// global; the local-writable authority migrates to the nearest surviving
// node with room, or syncs back to the global frame when none has any.
// One-writable-copy holds throughout: the authority moves in a single
// copy-then-drop step, and the fallback makes the global frame the sole
// authority.
func (n *Manager) evacuatePage(th *sim.Thread, pg *Page, node int) {
	switch {
	case pg.state == Remote && pg.owner == node:
		n.demoteRemote(th, pg, n.survivorProc(node))
		n.stats.Evacuations++
		n.emitEvacuate(th, pg, node, -1, "demote remote")
	case pg.state == LocalWritable && pg.owner == node:
		dst := n.evacDest(th, pg, node)
		if dst < 0 {
			n.syncFlush(th, pg, node, n.survivorProc(node), "sync&flush own")
			pg.setState(ReadOnly)
			pg.owner = -1
			n.stats.Evacuations++
			n.stats.EvacFallbacks++
			n.emitEvacuate(th, pg, node, -1, "sync to global")
			break
		}
		// evacDest verified (or reclaimed) a free frame.
		n.moveOwner(th, pg, dst, n.nodeProc(dst))
		n.stats.Evacuations++
		n.emitEvacuate(th, pg, node, dst, "migrate owner")
	case pg.copies[node] != nil:
		// Read-only replica: the global frame is authoritative.
		n.dropCopy(th, pg, node)
		n.stats.Evacuations++
		n.emitEvacuate(th, pg, node, -1, "drop replica")
	}
	n.maybeAudit(pg)
}

// evacDest picks the destination node for an evacuating writable copy:
// the nearest surviving node with a free frame. When every survivor is
// full it backs off exponentially (destination pressure may be a burst —
// retries are surfaced in Stats.EvacRetries), then falls back to
// reclaiming a frame on the nearest survivor. Returns -1 when no
// survivor can take the copy at all.
func (n *Manager) evacDest(th *sim.Thread, pg *Page, from int) int {
	ranked := n.machine.Spec().Ranked(from)
	if dst := n.freeSurvivor(ranked); dst >= 0 {
		return dst
	}
	for attempt := 0; attempt < evacMaxRetries; attempt++ {
		n.stats.EvacRetries++
		n.backoff(th, pg, n.nodeProc(from), attempt, evacBackoff<<uint(attempt), "evacuate")
		if dst := n.freeSurvivor(ranked); dst >= 0 {
			return dst
		}
	}
	for _, cand := range ranked[1:] {
		if n.machine.Topo().NodeDown(cand) {
			continue
		}
		if n.reclaimLocal(th, pg, cand, n.nodeProc(cand)) {
			return cand
		}
	}
	return -1
}

// freeSurvivor returns the first node in ranked order that is online and
// has a free frame, or -1. ranked[0] is the failing node itself.
func (n *Manager) freeSurvivor(ranked []int) int {
	for _, cand := range ranked[1:] {
		if !n.machine.Topo().NodeDown(cand) && n.machine.Memory().Local(cand).Free() > 0 {
			return cand
		}
	}
	return -1
}

// survivorProc returns a representative processor on the nearest online
// node — the processor evacuation work is billed to when the failing
// node's own processors are no longer eligible. Falls back to processor
// 0 when every node is offline (a degenerate schedule).
func (n *Manager) survivorProc(node int) int {
	for _, cand := range n.machine.Spec().Ranked(node) {
		if cand == node || n.machine.Topo().NodeDown(cand) {
			continue
		}
		if ps := n.machine.NodeProcs(cand); len(ps) > 0 {
			return ps[0]
		}
	}
	return 0
}

// emitEvacuate reports one evacuation action on the trace bus. dst is
// the destination node, or -1 when the copy was dropped or synced to
// global memory.
func (n *Manager) emitEvacuate(th *sim.Thread, pg *Page, from, dst int, label string) {
	if n.bus.Enabled() {
		n.bus.Emit(simtrace.Event{
			Kind: simtrace.KindEvacuate, Proc: -1, Thread: int32(th.ID()),
			Time: int64(th.Clock()), Page: pg.id,
			Arg: int64(from), Arg2: int64(dst), Label: label,
		})
	}
}
