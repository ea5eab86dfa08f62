package numa

import (
	"numasim/internal/mem"
	"numasim/internal/sim"
	"numasim/internal/simtrace"
)

// This file is the manager's memory-pressure machinery: the residency
// index over local frames, the deterministic clock-style reclaimer that
// frees a frame when a local memory fills, and the fault-injection hooks
// (transient allocation failures with bounded retry/backoff, delayed page
// moves). None of it runs — and none of it charges virtual time or emits
// events — unless a local pool actually exhausts or an Injector is
// installed, which is what keeps default-configuration runs byte-identical
// to a build without it.

// admitLocal reports whether node can take one more local copy of pg,
// retrying injected transient failures with backoff and running the clock
// reclaimer when the pool is genuinely full. proc is the faulting
// processor the work is billed to. On false the caller demotes the
// placement to global for this request only.
func (n *Manager) admitLocal(th *sim.Thread, pg *Page, node, proc int) bool {
	if n.chaos != nil {
		//numalint:coldpath fault injection: the retry loop runs only with an Injector installed
		for attempt := 0; n.chaos.FailLocalAlloc(th.Clock(), proc); attempt++ {
			n.stats.ChaosFaults++
			if attempt >= n.chaos.MaxRetries() {
				n.emitPressure(th, pg, node, proc, "chaos-fallback")
				return false
			}
			n.backoff(th, pg, proc, attempt, n.chaos.RetryBackoff(attempt), "")
			n.stats.Retries++
		}
	}
	if n.machine.Memory().Local(node).Free() > 0 {
		return true
	}
	if n.reclaimLocal(th, pg, node, proc) {
		return true
	}
	n.emitPressure(th, pg, node, proc, "local-fallback")
	return false
}

// reclaimLocal frees one frame of node's local memory by evicting a
// resident copy, chosen by a second-chance clock over the frame table:
// the hand sweeps frame indices in order, clearing reference bits, and
// evicts the first frame whose bit is already clear. Read-only replicas
// are flushed (the global frame stays authoritative); a local-writable
// copy is synced back to global memory first. Remote home placements are
// sticky (§4.4) and are skipped, as is keep — the page being placed.
// proc is the faulting processor billed for the eviction. Reports false
// when nothing was evictable.
func (n *Manager) reclaimLocal(th *sim.Thread, keep *Page, node, proc int) bool {
	shard := &n.shards[node]
	size := len(shard.resident)
	// Two revolutions bound the scan: the first may only clear bits.
	for step := 0; step < 2*size; step++ {
		i := shard.hand
		shard.hand = (i + 1) % size
		victim := shard.resident[i]
		if victim == nil || victim == keep || victim.state == Remote {
			continue
		}
		if shard.refbit[i] {
			shard.refbit[i] = false
			continue
		}
		before := victim.state
		var action string
		if victim.state == LocalWritable {
			// The only copy of a local-writable page lives on its owner,
			// so a resident local-writable victim is owned by node.
			n.syncFlush(th, victim, node, proc, "sync&flush own")
			victim.setState(ReadOnly)
			victim.owner = -1
			action = "sync&flush own"
		} else {
			n.dropCopy(th, victim, node)
			action = "flush"
		}
		th.AdvanceSys(n.machine.Cost().NUMAOp)
		n.stats.Evictions++
		if n.bus.Enabled() {
			n.bus.Emit(simtrace.Event{
				Kind: simtrace.KindEvict, Proc: int32(node), Thread: int32(th.ID()),
				Time: int64(th.Clock()), Page: victim.id,
				Arg: int64(before), Label: action,
			})
		}
		n.maybeAudit(victim)
		return true
	}
	return false
}

// noteCopy records f, a frame of node's local memory, as pg's copy on
// node and gives it a fresh reference bit. noteCopy and noteDrop are the
// only writers of a page's copies, so the residency shards cannot drift
// from them.
func (n *Manager) noteCopy(pg *Page, node int, f *mem.Frame) {
	pg.copies[node] = f
	shard := &n.shards[node]
	shard.resident[f.Index()] = pg
	shard.refbit[f.Index()] = true
}

// noteDrop clears pg's copy on node and its residency record.
func (n *Manager) noteDrop(pg *Page, node int) {
	i := pg.copies[node].Index()
	pg.copies[node] = nil
	shard := &n.shards[node]
	shard.resident[i] = nil
	shard.refbit[i] = false
}

// chargeMoveDelay charges any injected delay for a page move performed by
// proc (chaos models bus contention and slow paths on copies).
//
//numalint:coldpath fault injection: no-op unless an Injector is installed
func (n *Manager) chargeMoveDelay(th *sim.Thread, proc int) {
	if n.chaos == nil {
		return
	}
	if d := n.chaos.MoveDelay(th.Clock(), proc); d > 0 {
		th.Idle(d)
		n.stats.ChaosDelays++
	}
}

// backoff waits out a transient shortage before retry attempt of a
// request for pg by processor proc: it idles th for wait, charges one
// NUMA operation, the bookkeeping of re-issuing the request, as system
// time, and reports the retry under label on the trace bus. The caller
// counts it.
func (n *Manager) backoff(th *sim.Thread, pg *Page, proc, attempt int, wait sim.Time, label string) {
	th.Idle(wait)
	th.AdvanceSys(n.machine.Cost().NUMAOp)
	if n.bus.Enabled() {
		n.bus.Emit(simtrace.Event{
			Kind: simtrace.KindRetry, Proc: int32(proc), Thread: int32(th.ID()),
			Time: int64(th.Clock()), Dur: int64(wait), Page: pg.id,
			Arg: int64(attempt), Label: label,
		})
	}
}

// emitPressure reports one graceful-degradation event: a LOCAL or remote
// placement could not get a frame of node's local memory and the request
// by proc proceeds against global memory.
func (n *Manager) emitPressure(th *sim.Thread, pg *Page, node, proc int, label string) {
	if n.bus.Enabled() {
		n.bus.Emit(simtrace.Event{
			Kind: simtrace.KindPressure, Proc: int32(proc), Thread: int32(th.ID()),
			Time: int64(th.Clock()), Page: pg.id,
			Arg: int64(n.machine.Memory().Local(node).Free()), Label: label,
		})
	}
}
