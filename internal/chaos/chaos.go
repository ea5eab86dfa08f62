// Package chaos is the simulator's seeded fault-injection layer: it
// forces transient local-allocation failures and delays page moves, so
// the NUMA manager's pressure machinery (fallback, retry, reclaim) can be
// exercised and measured deterministically.
//
// Determinism is the design constraint. The fault schedule is drawn from
// a seeded PRNG (a splitmix64 stream owned by this package — math/rand is
// off limits in the deterministic core) advanced in virtual time: every
// draw folds the querying thread's virtual clock and the processor into
// the stream, so a given simulation asks the same questions in the same
// order and receives the same answers at any host parallelism. Each
// machine owns its own Injector; injectors are never shared across runs.
//
//numalint:deterministic
package chaos

import (
	"fmt"

	"numasim/internal/sim"
)

// Config parameterizes an Injector. The zero value disables every
// injection (Enabled reports false), which is how chaos stays strictly
// opt-in: a zero Config produces a run byte-identical to one with no
// injector attached.
type Config struct {
	// Seed selects the fault schedule. Two runs with equal Config are
	// identical; different seeds give independent schedules.
	Seed int64
	// FailProb is the probability (0..1) that one local-frame allocation
	// attempt fails transiently.
	FailProb float64
	// MaxRetries bounds how many times the NUMA manager retries a failed
	// local allocation before falling back to global placement.
	MaxRetries int
	// Backoff is the base virtual-time wait between retries; attempt k
	// waits Backoff<<k.
	Backoff sim.Time
	// DelayProb is the probability (0..1) that one page move (copy to
	// local, sync to global) is delayed by up to MoveDelay.
	DelayProb float64
	// MoveDelay is the maximum extra virtual time charged to a delayed
	// page move; the actual delay is drawn uniformly from (0, MoveDelay].
	MoveDelay sim.Time
	// PanicAt, when positive, makes the injector panic inside the first
	// protocol action consulted at or after this virtual time — a crash
	// drill for the harness supervisor's recovery and repro-bundle path.
	// It fires at most once per injector.
	PanicAt sim.Time
	// StallAt, when positive, makes Disrupt report a stall on the first
	// protocol action consulted at or after this virtual time: the faulting
	// thread then spins without advancing virtual time until the engine's
	// stall watchdog tears the run down. It fires at most once per
	// injector.
	StallAt sim.Time
	// Health is the hard-failure schedule: node offline/online and link
	// degrade/sever/restore events applied at fixed virtual times by the
	// metrics layer's health driver. See health.go. An empty schedule is
	// strictly inert — no driver thread is even spawned.
	Health []HealthEvent
}

// DefaultMaxRetries, DefaultBackoff and DefaultMoveDelay are the retry
// and delay parameters a run's chaos flags inject with. The virtual-time
// ones are sized against the ACE's fault-handling costs (a retry should
// cost about as much as losing the fault and taking it again).
const (
	DefaultMaxRetries = 3
	DefaultBackoff    = 200 * sim.Microsecond
	DefaultMoveDelay  = 100 * sim.Microsecond
)

// Enabled reports whether the config injects anything at all.
func (c Config) Enabled() bool {
	return c.FailProb > 0 || c.DelayProb > 0 || c.PanicAt > 0 || c.StallAt > 0
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.FailProb < 0 || c.FailProb > 1 {
		return fmt.Errorf("chaos: FailProb %v outside [0,1]", c.FailProb)
	}
	if c.DelayProb < 0 || c.DelayProb > 1 {
		return fmt.Errorf("chaos: DelayProb %v outside [0,1]", c.DelayProb)
	}
	if c.MaxRetries < 0 {
		return fmt.Errorf("chaos: MaxRetries %d < 0", c.MaxRetries)
	}
	if c.Backoff < 0 || c.MoveDelay < 0 {
		return fmt.Errorf("chaos: negative backoff or move delay")
	}
	if c.PanicAt < 0 || c.StallAt < 0 {
		return fmt.Errorf("chaos: negative PanicAt or StallAt")
	}
	return c.ValidateHealth()
}

// Injector draws the fault schedule for one machine. It implements
// numa.Injector. Not safe for concurrent use — like the machine it is
// attached to, it belongs to a single simulation loop.
type Injector struct {
	cfg Config
	// state is the splitmix64 stream position; seq differentiates draws
	// made at the same virtual instant.
	state uint64
	seq   uint64

	// One-shot latches for the crash-drill modes.
	panicked bool
	stalled  bool
}

// New builds an injector from cfg, panicking on invalid configuration
// (configuration is a programming error, as for ace.NewMachine).
func New(cfg Config) *Injector {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Injector{cfg: cfg, state: mix64(uint64(cfg.Seed) ^ 0x9e3779b97f4a7c15)}
}

// draw advances the PRNG, folding the virtual time of the query and a
// per-injector sequence number into the stream. The result is uniform in
// [0, 1<<53).
func (in *Injector) draw(now sim.Time, salt uint64) uint64 {
	in.seq++
	in.state = mix64(in.state ^ uint64(now) ^ salt ^ in.seq*0xbf58476d1ce4e5b9)
	return in.state >> 11
}

// chance reports true with probability p for this draw.
func (in *Injector) chance(now sim.Time, salt uint64, p float64) bool {
	if p <= 0 {
		return false
	}
	const scale = 1 << 53
	return float64(in.draw(now, salt)) < p*scale
}

// FailLocalAlloc reports whether one local-frame allocation attempt by
// proc at virtual time now fails transiently.
func (in *Injector) FailLocalAlloc(now sim.Time, proc int) bool {
	return in.chance(now, uint64(proc)<<1, in.cfg.FailProb)
}

// MoveDelay returns the extra virtual time to charge a page move
// performed by proc at time now, or zero when the move is not delayed.
func (in *Injector) MoveDelay(now sim.Time, proc int) sim.Time {
	if in.cfg.MoveDelay <= 0 || !in.chance(now, uint64(proc)<<1|1, in.cfg.DelayProb) {
		return 0
	}
	// Uniform in (0, MoveDelay], never zero: a delayed move always costs.
	return sim.Time(in.draw(now, 0)%uint64(in.cfg.MoveDelay)) + 1
}

// Disrupt is consulted once per protocol action. When the config's crash
// drills are armed it either panics (PanicAt) or reports that the calling
// thread should stall without advancing virtual time (StallAt); each
// fires at most once per injector. The panic happens here, not in the
// NUMA manager, so the deterministic core's own panics all stay routed
// through its typed-violation helper.
func (in *Injector) Disrupt(now sim.Time, proc int) (stall bool) {
	if in.cfg.PanicAt > 0 && !in.panicked && now >= in.cfg.PanicAt {
		in.panicked = true
		panic(fmt.Sprintf("chaos: injected panic at %v on cpu%d", now, proc))
	}
	if in.cfg.StallAt > 0 && !in.stalled && now >= in.cfg.StallAt {
		in.stalled = true
		return true
	}
	return false
}

// MaxRetries bounds the NUMA manager's retry loop.
func (in *Injector) MaxRetries() int { return in.cfg.MaxRetries }

// RetryBackoff returns the virtual-time wait before retry number attempt
// (zero-based): Backoff doubled per attempt.
func (in *Injector) RetryBackoff(attempt int) sim.Time {
	if attempt > 16 {
		attempt = 16 // cap the shift; the retry loop is bounded anyway
	}
	return in.cfg.Backoff << uint(attempt)
}

// mix64 is the splitmix64 finalizer: a bijective avalanche over uint64.
func mix64(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
