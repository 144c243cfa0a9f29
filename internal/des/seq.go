package des

import "fmt"

// Sequential is the single-threaded deterministic event executor: it pops
// events from a Store and runs each to completion on the calling
// goroutine.
type Sequential struct {
	store    Store
	now      Time
	stopped  bool
	executed uint64
	sink     TraceSink
	probe    Probe
}

// NewEngine returns a sequential engine with the clock at zero.
func NewEngine() *Sequential { return &Sequential{} }

// Now returns the current virtual time.
func (e *Sequential) Now() Time { return e.now }

// Pending returns the number of scheduled events.
func (e *Sequential) Pending() int { return e.store.Len() }

// GlobalHorizon returns the earliest time a global event may be scheduled
// without reordering work already underway. The sequential engine never has
// work in flight, so its horizon is the current time.
func (e *Sequential) GlobalHorizon() Time { return e.now }

// Executed counts events that have run.
func (e *Sequential) Executed() uint64 { return e.executed }

// SetTraceSink installs (or, with nil, removes) the engine's phase-event
// sink. Install it before Run; the zero-sink path is a nil check.
func (e *Sequential) SetTraceSink(s TraceSink) { e.sink = s }

// SetProbe installs (or, with nil, removes) the engine's wall-clock
// telemetry probe. Install it before Run; the zero-probe path is a nil
// check per event.
func (e *Sequential) SetProbe(p Probe) { e.probe = p }

// At schedules fn to run at absolute virtual time t. Scheduling in the past
// panics: it would silently reorder causality.
func (e *Sequential) At(t Time, fn func()) {
	_, ev := e.store.add(e.now, t, -1)
	ev.Fn = fn
}

// AtShardFn schedules a two-phase event; the sequential engine ignores the
// shard and runs phase and commit back to back, which makes the sharded
// path behaviourally identical to a plain At.
func (e *Sequential) AtShardFn(shard int, t Time, fn PhaseFn, a any, b int64) {
	_, ev := e.store.add(e.now, t, shard)
	ev.Phase, ev.A, ev.B = fn, a, b
}

// AtShardCommit schedules a commit-only sharded event from a preallocated
// CommitFn.
func (e *Sequential) AtShardCommit(shard int, t Time, fn CommitFn, a any, b int64) {
	_, ev := e.store.add(e.now, t, shard)
	ev.Commit, ev.A, ev.B = fn, a, b
}

// After schedules fn to run d seconds from now.
func (e *Sequential) After(d Time, fn func()) {
	if !(d >= 0) {
		panic(fmt.Sprintf("des: negative delay %v", d))
	}
	e.At(e.now+d, fn)
}

// Stop makes Run return after the currently executing event completes.
func (e *Sequential) Stop() { e.stopped = true }

// Step executes the single earliest event. It reports false when no events
// remain.
func (e *Sequential) Step() bool {
	id, ok := e.store.popID()
	if !ok {
		return false
	}
	// Copy the body out before running it: it may push, which can reuse
	// the slot or grow the slab.
	ev := &e.store.slots[id]
	at, shard := ev.At, ev.Shard
	fn, phase, commitFn := ev.Fn, ev.Phase, ev.Commit
	a, b := ev.A, ev.B
	e.store.release(id)
	e.now = at
	e.executed++
	if fn != nil {
		fn()
	} else {
		if e.sink != nil {
			e.sink.PhaseStart(shard, at)
		}
		if commitFn != nil {
			commitFn(a, b, at)
		} else if commit := phase(a, b, at); commit != nil {
			commit()
		}
		if e.sink != nil {
			e.sink.PhaseDone(shard, at)
		}
	}
	if e.probe != nil {
		e.probe.EventExecuted(shard, at, e.store.Len())
	}
	return true
}

// Run executes events until the queue drains or Stop is called.
func (e *Sequential) Run() {
	e.stopped = false
	for !e.stopped && e.Step() {
	}
}

// RunUntil executes events with timestamps <= t, then advances the clock to
// t (if it is ahead of the last event). Events scheduled during execution
// are honoured if they fall within the horizon.
func (e *Sequential) RunUntil(t Time) {
	e.stopped = false
	for !e.stopped {
		if id, ok := e.store.Peek(); !ok || e.store.Event(id).At > t {
			break
		}
		e.Step()
	}
	if e.now < t {
		e.now = t
	}
}
