package numa

// White-box tests for the online auditor: they corrupt the directory in
// ways no public API allows and check the audit catches each class of
// damage with a typed, forensics-carrying violation. The black-box audit
// coverage (full-stride auditing over random scripts) lives in the fuzz
// suite, which runs EnableAudit(1, ...) over every seed.

import (
	"errors"
	"strings"
	"testing"

	"numasim/internal/ace"
	"numasim/internal/mmu"
	"numasim/internal/sim"
	"numasim/internal/simtrace"
)

// localPolicy caches everything locally, so one write gives the page a
// local-writable copy to corrupt. (The real policies live in a package
// that imports this one; a white-box test must bring its own.)
type localPolicy struct{}

func (localPolicy) CachePolicy(pg *Page, proc int, write bool, maxProt mmu.Prot) Location {
	return Local
}
func (localPolicy) Name() string { return "test-local" }

// auditRig builds a two-processor machine, runs one write so the page
// has a local-writable copy on cpu0, and returns the audited manager.
func auditRig(t *testing.T) (*Manager, *Page, *simtrace.RingSink) {
	t.Helper()
	cfg := ace.DefaultConfig()
	cfg.NProc = 2
	cfg.GlobalFrames = 32
	cfg.LocalFrames = 4
	cfg.PageSize = 256
	m := ace.MustMachine(cfg)
	n := NewManager(m, localPolicy{})
	ring := simtrace.NewRingSink(64)
	m.AttachSink(ring)
	n.EnableAudit(1, ring)

	var pg *Page
	m.Engine().Spawn("setup", 0, func(th *sim.Thread) {
		var err error
		if pg, err = n.NewPage(); err != nil {
			t.Error(err)
			return
		}
		f, _ := n.Access(th, pg, 0, true, mmu.ProtReadWrite)
		f.Store32(0, 7)
	})
	if err := m.Engine().Run(); err != nil {
		t.Fatal(err)
	}
	if pg.copies[0] == nil || pg.state != LocalWritable {
		t.Fatalf("rig: page state %v, want a local-writable copy on cpu0", pg.state)
	}
	if err := n.AuditAll(); err != nil {
		t.Fatalf("clean directory fails audit: %v", err)
	}
	return n, pg, ring
}

func TestAuditStride(t *testing.T) {
	n, _, _ := auditRig(t)
	if n.auditStride != 1 {
		t.Errorf("audit stride = %d, want 1", n.auditStride)
	}
}

func TestAuditCatchesMissingResidency(t *testing.T) {
	n, pg, _ := auditRig(t)
	n.shards[0].resident[pg.copies[0].Index()] = nil // lose the residency record
	err := n.AuditAll()
	if err == nil || !strings.Contains(err.Error(), "missing from the residency table") {
		t.Errorf("err = %v, want missing-residency report", err)
	}
}

func TestAuditCatchesStaleResidency(t *testing.T) {
	n, pg, _ := auditRig(t)
	// Record the page in a frame slot it does not occupy.
	idx := pg.copies[0].Index()
	n.shards[1].resident[idx] = pg
	err := n.AuditAll()
	if err == nil || !strings.Contains(err.Error(), "stale residency entry") {
		t.Errorf("err = %v, want stale-residency report", err)
	}
}

// TestAuditCatchesDivergedReplica: cpu0 writes a page, then cpu1 reads
// it, which syncs cpu0's dirty copy back and places a read-only replica on
// cpu1 that shares the global frame's bytes. The audit accepts the
// replica, and reports it once a store that no mapping allows makes it
// differ.
func TestAuditCatchesDivergedReplica(t *testing.T) {
	cfg := ace.DefaultConfig()
	cfg.NProc = 2
	cfg.GlobalFrames = 8
	cfg.LocalFrames = 4
	cfg.PageSize = 256
	m := ace.MustMachine(cfg)
	n := NewManager(m, localPolicy{})
	n.EnableAudit(1, nil)
	var pg *Page
	m.Engine().Spawn("setup", 0, func(th *sim.Thread) {
		var err error
		if pg, err = n.NewPage(); err != nil {
			t.Error(err)
			return
		}
		f, _ := n.Access(th, pg, 0, true, mmu.ProtReadWrite)
		f.Store32(0, 7)
		n.Access(th, pg, 1, false, mmu.ProtReadWrite)
	})
	if err := m.Engine().Run(); err != nil {
		t.Fatal(err)
	}
	r := pg.copies[1]
	if pg.state != ReadOnly || r == nil || r.Load32(0) != 7 || !r.Equal(pg.global) {
		t.Fatalf("page state %v, replica %v: want a read-only replica holding 7", pg.state, r)
	}
	r.Store32(4, 1)
	err := n.AuditAll()
	if err == nil || !strings.Contains(err.Error(), "replica on node1 differs from its global frame") {
		t.Errorf("err = %v, want diverged-replica report", err)
	}
	if pg.global.Load32(4) != 0 {
		t.Error("a store to the replica reached the global frame it shares")
	}
}

func TestAuditCatchesPinRegression(t *testing.T) {
	n, pg, _ := auditRig(t)
	pg.pinSeen = true // the audit saw it pinned once...
	pg.pinned = false // ...and now the bit is gone without a FreePage
	err := n.AuditAll()
	if err == nil || !strings.Contains(err.Error(), "pin bit cleared outside FreePage") {
		t.Errorf("err = %v, want pin-monotonicity report", err)
	}
}

// TestMaybeAuditPanicsTyped: the incremental audit dies with a
// *ProtocolViolationError that names the page, carries its state, and
// attaches the forensic ring contents.
func TestMaybeAuditPanicsTyped(t *testing.T) {
	n, pg, ring := auditRig(t)
	if len(ring.Events()) == 0 {
		t.Fatal("rig produced no trace events; the forensic ring would be empty")
	}
	n.shards[0].resident[pg.copies[0].Index()] = nil
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("corrupted directory did not panic under stride-1 audit")
		}
		err, ok := r.(error)
		if !ok {
			t.Fatalf("panic value %T, want error", r)
		}
		var v *ProtocolViolationError
		if !errors.As(err, &v) {
			t.Fatalf("panic error %v, want *ProtocolViolationError", err)
		}
		if v.Page != pg.id || v.State != pg.state {
			t.Errorf("violation page=%d state=%v, want %d/%v", v.Page, v.State, pg.id, pg.state)
		}
		if len(v.Trace) == 0 {
			t.Error("violation carries no ring trace")
		}
		msg := v.Error()
		if !strings.Contains(msg, "audit") || !strings.Contains(msg, "trace events captured") {
			t.Errorf("violation message %q missing audit context or trace count", msg)
		}
	}()
	n.maybeAudit(pg)
}

// TestSampledAuditSkips: with a large stride the ops between sample
// points are never audited, so a transient corruption repaired before
// the next sample point goes unreported (the documented trade-off).
func TestSampledAuditSkips(t *testing.T) {
	n, pg, _ := auditRig(t)
	n.EnableAudit(1000, nil)
	saved := n.shards[0].resident[pg.copies[0].Index()]
	n.shards[0].resident[pg.copies[0].Index()] = nil
	for i := 0; i < 10; i++ {
		n.maybeAudit(pg) // ops 1..10 of 1000: no sample point reached
	}
	n.shards[0].resident[pg.copies[0].Index()] = saved
}

func TestViolationWithoutPage(t *testing.T) {
	v := newViolation(nil, nil, "numa: %s", "nil policy")
	if v.Page != -1 {
		t.Errorf("pageless violation Page = %d, want -1", v.Page)
	}
	if got := v.Error(); got != "numa: nil policy" {
		t.Errorf("Error() = %q, want bare message (no page suffix, no trace note)", got)
	}
}
