// Package des implements a deterministic discrete-event simulation engine.
//
// The engine is the foundation of the virtual parallel machine: every
// runtime action (message delivery, entry-method completion, timer expiry)
// is an event with a virtual timestamp. Events at equal timestamps are
// ordered by an insertion sequence number, which makes every simulation run
// bit-for-bit reproducible. Once scheduled, an event always runs: the
// runtime, like Charm++'s scheduler, never takes a message back.
//
// Four engines satisfy the Engine interface and produce identical event
// orders. Three of them keep their events in this package's Store, a
// slab-allocated event store drained through a calendar queue: Sequential
// (this package) executes every event on the calling goroutine, and the
// two parallel engines share one core in internal/optsim, which executes
// event phases on worker goroutines while preserving the exact (timestamp,
// sequence) commit order — internal/parsim runs it under the conservative
// policy (phases launch only inside the lookahead window) and
// internal/optsim under the optimistic one (phases speculate and roll back
// on a straggler). Heap (this package) is the original binary-heap
// executor with its own container/heap queue, kept as the independent
// reference for differential order tests and for measuring the calendar
// engine's speedup.
package des

import "math"

// Time is virtual time in seconds since the start of the simulation.
type Time float64

// Forever is a timestamp later than any event the engine will execute.
const Forever Time = Time(math.MaxFloat64)

// PhaseFn is a two-phase event body. Engines call it at pop with the
// event's payload pair and timestamp; it may touch only shard-local state
// and must not call back into the engine, and it returns a commit closure
// (or nil) that runs with global state exclusively held. Schedulers pass a
// long-lived function value (typically a method value created once at
// startup) so the hot send path schedules without allocating a closure per
// event; one-off closures go through ClosurePhase.
type PhaseFn func(a any, b int64, at Time) func()

// ClosurePhase is the PhaseFn for a one-off two-phase closure: schedule fn,
// a func() func() that runs the phase and returns its commit (or nil), as
// AtShardFn(shard, t, ClosurePhase, fn, 0). The closure costs an
// allocation per event, so hot paths pass a long-lived PhaseFn instead.
func ClosurePhase(a any, _ int64, _ Time) func() { return a.(func() func())() }

// CommitFn is a preallocated commit-only event body: the whole event runs
// at commit position (global state allowed, no concurrent phase work).
// Message arrival — which must touch the location manager and quiescence
// state — uses this form.
type CommitFn func(a any, b int64, at Time)

// Engine is the scheduling interface the runtime depends on. All methods
// must be called from the simulation's driving goroutine (or from within an
// event's commit); engines are not thread-safe by design — parallelism, where
// available, lives inside the engine. A scheduled event cannot be withdrawn:
// it runs when it reaches the front of the queue. Scheduling at a timestamp
// before Now(), or at NaN, panics.
type Engine interface {
	// Now returns the current virtual time.
	Now() Time
	// Pending returns the number of scheduled events not yet popped.
	Pending() int
	// Executed counts events that have run, for introspection and tests.
	Executed() uint64
	// At schedules fn to run at absolute virtual time t as a global event:
	// fn may touch any simulation state, so a parallel engine runs it alone.
	At(t Time, fn func())
	// AtShardFn schedules a two-phase event bound to a shard (a virtual
	// node): fn is invoked with (a, b, t) at pop, may touch only
	// shard-local state, and returns a commit closure (or nil) that the
	// engine runs with global state exclusively held, in exact (timestamp,
	// sequence) order. A sequential engine runs phase and commit back to
	// back; a parallel one may run the phase early on a worker.
	AtShardFn(shard int, t Time, fn PhaseFn, a any, b int64)
	// AtShardCommit schedules a sharded event whose entire body runs at
	// commit position, again without a per-event closure.
	AtShardCommit(shard int, t Time, fn CommitFn, a any, b int64)
	// After schedules fn to run d seconds from now as a global event.
	After(d Time, fn func())
	// Stop makes Run return after the currently executing event completes.
	Stop()
	// Run executes events until the queue drains or Stop is called.
	Run()
	// RunUntil executes events with timestamps <= t, then advances the
	// clock to t (if it is ahead of the last event).
	RunUntil(t Time)
}

// HorizonReporter is implemented by engines that can report a safe
// scheduling horizon for *global* events: the earliest timestamp at which a
// new global event is guaranteed not to precede any phase the engine has
// already handed to a worker. Events are never withdrawn, so a newly
// scheduled event is the only thing that can land in such a phase's past.
// The sequential engines' horizon is simply Now(), and so is the optimistic
// engine's (a global in a speculation's past rolls it back); the
// conservative engine's is its latest in-flight launch. Fault-recovery code
// uses this to schedule a rollback — a global event — from inside an event
// commit without tripping the conservative engine's lookahead guard.
type HorizonReporter interface {
	GlobalHorizon() Time
}

// EngineHorizon returns e's global-event scheduling horizon, falling back
// to Now() for engines that do not report one.
func EngineHorizon(e Engine) Time {
	if hr, ok := e.(HorizonReporter); ok {
		return hr.GlobalHorizon()
	}
	return e.Now()
}

// TraceSink receives engine-level execution events: the pop of each
// sharded event (PhaseStart) and the completion of its commit (PhaseDone).
// Engines call the sink only from the driving goroutine, in exact
// (timestamp, sequence) pop order — the same order on the sequential and
// parallel engines — so a recorder that logs calls as they arrive produces
// bit-identical traces on both backends. The projections tracer uses these
// events to measure how much phase parallelism a run exposes.
type TraceSink interface {
	PhaseStart(shard int, at Time)
	PhaseDone(shard int, at Time)
}

// SinkSetter is implemented by engines that can report phase events to a
// TraceSink. A nil sink (the default) disables reporting.
type SinkSetter interface {
	SetTraceSink(TraceSink)
}

// SpecSink extends TraceSink with the speculation pipeline of the
// optimistic (Time Warp) engine: a phase handed to a worker ahead of the
// commit frontier (SpecLaunch), a speculation whose result was used at its
// pop (SpecCommit), and a speculation undone by a straggler (SpecRollback).
// All calls arrive on the driving goroutine. Launch and rollback decisions
// depend only on heap state — never worker timing — so the call sequence
// is deterministic run-to-run for a given workload, though it exists only
// on the optimistic backend (conservative and sequential engines never
// speculate, so recording these events forfeits cross-backend trace
// identity; the projections tracer keeps them opt-in for that reason).
type SpecSink interface {
	TraceSink
	SpecLaunch(shard int, at Time)
	SpecCommit(shard int, at Time)
	SpecRollback(shard int, at Time)
}

// Probe is the engine's wall-clock telemetry interface, implemented by
// internal/telemetry. It is strictly side-band: engines call it to *report*
// what they decided and to obtain wall-clock stamps, and nothing a probe
// returns may influence scheduling — the digest of a run must be
// byte-identical with and without a probe installed. Engines therefore
// never read the wall clock themselves; the one clock in the tree lives
// behind WallNow, inside the telemetry package, where charmvet's
// //charmvet:telemetry waiver scopes it.
//
// All calls arrive on the driving goroutine. A nil probe (the default) is
// the fast path: every call site is guarded by a single pointer check.
type Probe interface {
	// WallNow returns a monotonic wall-clock reading in nanoseconds.
	// Engines use it to stamp launches and measure waits; the reference
	// point is the probe's own.
	WallNow() int64
	// EventExecuted is called after every executed event with the number
	// of still-pending events — the telemetry layer's heartbeat for
	// publish throttling and commit-queue-depth tracking.
	EventExecuted(shard int, at Time, pending int)
	// PhaseWall reports one worker-launched phase after its commit:
	// wallNs is launch→commit-done latency, stallNs the driver's wait for
	// the phase result at pop, speculative whether the launch ran ahead
	// of the commit frontier (optimistic backend).
	PhaseWall(shard int, at Time, wallNs, stallNs int64, speculative bool)
	// WindowStall reports a conservative launch scan that found events in
	// the lookahead window but could launch none of them.
	WindowStall(at Time)
	// SpecLaunched reports an optimistic launch and how far ahead of the
	// commit frontier (GVT) it ran.
	SpecLaunched(shard int, at Time, gvtLag Time)
	// SpecRolledBack reports an undone speculation; waitNs is the wall
	// time the driver spent waiting for the doomed phase to finish.
	SpecRolledBack(shard int, at Time, waitNs int64)
}

// ProbeSetter is implemented by engines that can report wall-clock
// telemetry to a Probe. A nil probe (the default) disables reporting.
type ProbeSetter interface {
	SetProbe(Probe)
}
