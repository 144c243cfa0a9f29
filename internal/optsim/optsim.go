// Package optsim is the parallel engine core of the virtual machine: one
// des.Engine body that executes event phases on worker goroutines while
// committing their global effects strictly in (timestamp, sequence) order,
// so every run is bit-for-bit identical to internal/des.Sequential. Two
// policies run over the one body: optimistic Time Warp (New, this
// package's backend) and conservative lookahead (NewConservative, wrapped
// by internal/parsim).
//
// # The body
//
// The engine keeps one global event heap with exactly the sequential
// engine's ordering, and a single driving goroutine that pops and commits
// events strictly in that order. Parallelism comes from running event
// *phases* early: a sharded event's body is split by the runtime into a
// phase (reads and writes only its shard's state, buffers everything else)
// and a commit closure (applies the buffered global effects).
//
// One launch rule serves both policies. Before every pop, each shard's
// earliest pending event is handed to a worker if it is a two-phase event
// (commit-only bodies touch global state and run at their pop), is not the
// heap top (the driver runs that inline, overlapping the launches),
// precedes the earliest pending global event, lies within a RunUntil
// horizon, and lies before the launch limit top+W, where top is the heap
// top's timestamp and W the policy's window. A per-shard lazy-deletion
// min-heap tracks the shard minima, so the scan costs O(shards). At most
// one phase per shard is ever in flight, and never one that follows a
// pending global, so a global always pops with nothing in flight and may
// touch every shard.
//
// The pop loop then proceeds exactly like the sequential engine: take the
// heap minimum, set the clock to its timestamp, run its commit (waiting
// for the phase if a worker has it). Events whose phases were never
// launched run inline on the driver.
//
// # The two policies
//
// Phases touch only shard-local state, and shard state is mutated only by
// that shard's own events, so the one way an early phase can be wrong is
// new work scheduled into its past — a straggler — or a Cancel of it. Every
// scheduling entry point checks for one. The policies differ in what the
// window is and what a straggler means:
//
//	                   optimistic (New)              conservative (NewConservative)
//	window W           Options.Window, 0 = unbounded lookahead α, 0 = no early launch
//	straggler, Cancel  roll the shard back           lookahead-violation panic
//	Run/RunUntil exit  roll in-flight phases back    withhold their commits
//	GlobalHorizon      Now()                         max(Now, latest in-flight launch)
//
// Conservative: α is the minimum cross-shard latency of the machine model
// (the α of the α–β network model). An in-flight phase is its shard's
// earliest event and lies within α of the frontier, so the only work that
// could precede it is a same-shard continuation (spawned by its own
// commit, hence later) or a cross-shard message, which arrives at least α
// after the frontier. The runtime's latency model guarantees every message
// path satisfies the bound; a straggler means it did not, and the engine
// fails loudly rather than silently diverging. Stop withholds the commits
// of in-flight phases (they apply if a later Run pops the events): global
// state stops exactly where the sequential engine would, and only the
// in-flight shards' local state has advanced.
//
// Optimistic: on low-α machine models the conservative window admits almost
// no concurrency even when most messages arrive much later than α. Time
// Warp inverts the bet: launch every shard's earliest phase (bounded only
// by the optional optimism window), detect the rare straggler, and pay for
// it with a rollback. Rollback waits for the phase, discards its withheld
// commit closure and asks the registered Controller to undo the phase's
// shard-local mutations (charm's speculation controller restores them from
// PUP images). Every globally visible effect of a phase is buffered in the
// commit closure, which never ran, so no anti-messages are needed; the
// event stays scheduled and runs again later. Commits are serialized on the
// driver in (at, seq) order, so the Global Virtual Time is exact — the
// timestamp of the last popped event — and CommitSpec releases a shard's
// snapshot as soon as its speculation commits. Run/RunUntil roll back all
// still-in-flight speculations before returning, so post-run machine state
// — not just committed output — is bit-identical to the sequential
// engine's.
//
// # Discipline
//
// Phase functions must not call back into the engine — the runtime's
// context buffering guarantees this for all runtime paths. Commits may
// schedule freely; under the conservative policy cross-shard and global
// work must land at least α past the frontier.
package optsim

import (
	"container/heap"
	"fmt"
	"runtime"
	"sync"

	"charmgo/internal/des"
	"charmgo/internal/projections/metrics"
)

// Options configures an engine.
type Options struct {
	// Shards is the number of shards (virtual nodes). Events carry shard
	// ids in [0, Shards).
	Shards int
	// Workers caps the worker goroutines running phases; 0 means
	// GOMAXPROCS.
	Workers int
	// Window is the launch window W: phases launch only within [top,
	// top+Window) of the heap top. For the optimistic policy it bounds
	// optimism and zero means unbounded speculation; a finite window trades
	// exposed parallelism for rollback risk on workloads whose cross-shard
	// messages routinely land close to the frontier. For the conservative
	// policy it is the lookahead α and zero disables early launches (every
	// event runs inline — correct but serial).
	Window des.Time
}

// Controller undoes speculative phase execution. The runtime registers one
// (charm's speculation controller) on an optimistic engine; without one the
// optimistic engine never launches phases early — every event runs inline
// at its pop, which is correct but serial. The conservative policy never
// rolls back and takes none.
//
// All three methods are called from the driving goroutine. BeginSpec(s)
// runs before the phase is handed to a worker (the worker observes it
// through the job-channel happens-before edge); CommitSpec(s) runs after
// the speculated event's commit closure at its pop; RollbackSpec(s) runs
// after the phase has finished, when a straggler invalidated it.
type Controller interface {
	BeginSpec(shard int)
	CommitSpec(shard int)
	RollbackSpec(shard int)
}

// event is one scheduled event with its shard binding and pipeline state.
type event struct {
	at    des.Time
	fn    func()       // global body (shard < 0)
	pfn   des.PhaseFn  // sharded two-phase body
	cfn   des.CommitFn // sharded commit-only body (never launched early)
	a     any
	b     int64
	seq   uint64
	pos   int // heap index, -1 when popped or cancelled
	shard int // -1 for global events

	// Pipeline state, owned by the driver except as noted.
	launched bool
	done     chan struct{} // closed by the worker when the phase finishes
	commit   func()        // written by the worker before close(done)
	pval     any           // captured phase panic, re-raised at pop
	panicked bool
	launchNs int64 // wall stamp at launch, 0 unless a probe is installed
}

// Live reports whether the event is still scheduled.
func (ev *event) Live() bool { return ev.pos >= 0 }

type eventHeap []*event

func (h eventHeap) Len() int           { return len(h) }
func (h eventHeap) Less(i, j int) bool { return precedes(h[i], h[j]) }
func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].pos = i
	h[j].pos = j
}
func (h *eventHeap) Push(x any) {
	ev := x.(*event)
	ev.pos = len(*h)
	*h = append(*h, ev)
}
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	ev.pos = -1
	*h = old[:n-1]
	return ev
}

// precedes reports whether a comes before b in the engine's total event
// order (timestamp, then scheduling sequence).
func precedes(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// lazyHeap is a secondary min-heap of events in (at, seq) order with lazy
// deletion: events that left the global heap (pos < 0 — popped or
// cancelled) are discarded when they surface at the top. The engine keeps
// one per shard (tracking each shard's earliest pending event) and one for
// globals, so the launch scan never walks the global heap.
type lazyHeap []*event

func (h *lazyHeap) push(ev *event) {
	a := append(*h, ev)
	i := len(a) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !precedes(ev, a[p]) {
			break
		}
		a[i] = a[p]
		i = p
	}
	a[i] = ev
	*h = a
}

// peek returns the earliest still-scheduled event, discarding dead
// entries, or nil when none remain.
func (h *lazyHeap) peek() *event {
	a := *h
	for len(a) > 0 {
		if top := a[0]; top.pos >= 0 {
			*h = a
			return top
		}
		n := len(a) - 1
		last := a[n]
		a[n] = nil
		a = a[:n]
		if n > 0 {
			i := 0
			for {
				c := 2*i + 1
				if c >= n {
					break
				}
				if r := c + 1; r < n && precedes(a[r], a[c]) {
					c = r
				}
				if !precedes(a[c], last) {
					break
				}
				a[i] = a[c]
				i = c
			}
			a[i] = last
		}
	}
	*h = a
	return nil
}

// Engine is the parallel event executor. It satisfies des.Engine. Its
// methods must be called from the driving goroutine (or from an event's
// commit) — the parallelism is internal.
type Engine struct {
	now      des.Time
	seq      uint64
	heap     eventHeap
	stopped  bool
	executed uint64

	conservative bool     // the policy; see the package comment's table
	window       des.Time // W: the optimism window or the lookahead
	workers      int
	ctrl         Controller

	// Worker pool, alive only while Run/RunUntil executes.
	jobs   chan *event
	poolWG sync.WaitGroup

	// In-flight phase tracking, owned by the driver.
	launchedOn []*event // per shard: the launched, not-yet-popped event
	inFlight   int      // count of launched, not-yet-popped events

	// Shard minima and pending globals, for the O(shards) launch scan.
	shardQ  []lazyHeap
	globals lazyHeap

	stats Stats
	sink  des.TraceSink
	ssink des.SpecSink
	probe des.Probe
}

// Stats aggregates speculation counters over the engine's lifetime. The
// driver's launch and rollback decisions depend only on heap state at each
// step — never on worker timing — so every counter is deterministic for a
// given workload and backend.
type Stats struct {
	Launched    uint64   // speculative phase executions (including re-runs after rollback)
	Committed   uint64   // speculations whose withheld commit was used at pop
	RolledBack  uint64   // speculations undone by a straggler, cancel, or run exit
	Inline      uint64   // sharded events run inline on the driver at pop
	Global      uint64   // global events (always inline, always with zero in flight)
	MaxInFlight int      // most concurrently speculated phases observed
	MaxGVTLag   des.Time // furthest a speculation ever ran ahead of the commit frontier
}

// WastedFraction is the fraction of speculative phase executions whose
// work was thrown away — the Time Warp overhead metric.
func (s Stats) WastedFraction() float64 {
	if s.Launched == 0 {
		return 0
	}
	return float64(s.RolledBack) / float64(s.Launched)
}

// RollbackRatio is rollbacks per committed event — how often the
// optimistic bet lost, normalized by useful progress.
func (s Stats) RollbackRatio() float64 {
	if c := s.Committed + s.Inline + s.Global; c > 0 {
		return float64(s.RolledBack) / float64(c)
	}
	return 0
}

// EngineStats returns the speculation counters accumulated so far.
func (e *Engine) EngineStats() Stats { return e.stats }

// SetController installs the speculation undo controller. Without one the
// optimistic engine never launches phases early.
func (e *Engine) SetController(c Controller) { e.ctrl = c }

// SetWindow replaces the launch window (optimistic: 0 = unbounded).
// Driver-context only: launch eligibility reads the window fresh on every
// pop, so the change takes effect deterministically at the next launch
// decision — callers adjusting it from commit closures or Controller
// callbacks (which run on the driving goroutine) keep runs bit-identical
// across worker counts.
func (e *Engine) SetWindow(w des.Time) { e.window = w }

// Window reports the current launch window (optimistic: 0 = unbounded).
func (e *Engine) Window() des.Time { return e.window }

// SetTraceSink installs (or, with nil, removes) the engine's phase-event
// sink. PhaseStart/PhaseDone are called only from the driving goroutine at
// the pop of each sharded event — the same positions, in the same total
// order, as the sequential engine. Under the optimistic policy a sink that
// additionally implements des.SpecSink also receives speculation-pipeline
// events (launch, commit, rollback); the conservative policy never
// speculates and reports none.
func (e *Engine) SetTraceSink(s des.TraceSink) {
	e.sink = s
	e.ssink = nil
	if !e.conservative {
		e.ssink, _ = s.(des.SpecSink)
	}
}

// SetProbe installs (or, with nil, removes) the engine's wall-clock
// telemetry probe (internal/telemetry). Strictly side-band: the probe
// observes launch latency, driver stalls, window stalls (conservative) and
// rollback cost and GVT lag (optimistic), and nothing it returns
// influences scheduling. The zero-probe path is a nil check.
func (e *Engine) SetProbe(p des.Probe) { e.probe = p }

// GVT returns the Global Virtual Time: the commit frontier below which no
// rollback can ever occur. Commits are serialized on the driving
// goroutine, so GVT is exact — the timestamp of the last popped event —
// rather than the estimate a distributed Time Warp must compute.
func (e *Engine) GVT() des.Time { return e.now }

// GlobalHorizon reports the safe scheduling horizon for global events.
// Under the optimistic policy every instant is safe — a global scheduled
// into a speculation's past rolls it back — so the horizon is Now(),
// exactly the sequential engine's answer, which keeps fault-recovery
// timing (chaos schedules its rollbacks at the horizon) bit-identical
// across the sequential and optimistic backends. Under the conservative
// policy it is the latest in-flight launch, or Now() if later: a global
// scheduled there never precedes a phase that could have observed it.
func (e *Engine) GlobalHorizon() des.Time {
	h := e.now
	if e.conservative {
		for _, le := range e.launchedOn {
			if le != nil && le.at > h {
				h = le.at
			}
		}
	}
	return h
}

// RegisterMetrics exposes the engine's speculation counters through a
// metrics registry.
func (e *Engine) RegisterMetrics(reg *metrics.Registry) {
	reg.GaugeFunc("optsim.spec_launched", func() float64 { return float64(e.stats.Launched) })
	reg.GaugeFunc("optsim.spec_committed", func() float64 { return float64(e.stats.Committed) })
	reg.GaugeFunc("optsim.spec_rolled_back", func() float64 { return float64(e.stats.RolledBack) })
	reg.GaugeFunc("optsim.inline_events", func() float64 { return float64(e.stats.Inline) })
	reg.GaugeFunc("optsim.global_events", func() float64 { return float64(e.stats.Global) })
	reg.GaugeFunc("optsim.max_in_flight", func() float64 { return float64(e.stats.MaxInFlight) })
	reg.GaugeFunc("optsim.wasted_work_fraction", func() float64 { return e.stats.WastedFraction() })
	reg.GaugeFunc("optsim.rollback_ratio", func() float64 { return e.stats.RollbackRatio() })
	reg.GaugeFunc("optsim.gvt", func() float64 { return float64(e.now) })
	reg.GaugeFunc("optsim.gvt_lag", func() float64 { return float64(e.gvtLag()) })
	reg.GaugeFunc("optsim.max_gvt_lag", func() float64 { return float64(e.stats.MaxGVTLag) })
}

// gvtLag is how far the furthest in-flight speculation currently runs
// ahead of the commit frontier.
func (e *Engine) gvtLag() des.Time {
	var lag des.Time
	for _, le := range e.launchedOn {
		if le != nil && le.at-e.now > lag {
			lag = le.at - e.now
		}
	}
	return lag
}

// New returns an engine under the optimistic policy with the clock at
// zero.
func New(opts Options) *Engine { return newEngine(opts, false) }

// NewConservative returns an engine under the conservative policy with the
// clock at zero: opts.Window is the lookahead α, no controller is taken, a
// straggler panics, and Run exit withholds in-flight commits.
func NewConservative(opts Options) *Engine { return newEngine(opts, true) }

func newEngine(opts Options, conservative bool) *Engine {
	w := opts.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	shards := opts.Shards
	if shards < 1 {
		shards = 1
	}
	return &Engine{
		conservative: conservative,
		window:       opts.Window,
		workers:      w,
		launchedOn:   make([]*event, shards),
		shardQ:       make([]lazyHeap, shards),
	}
}

// name prefixes the engine's panic messages with its backend.
func (e *Engine) name() string {
	if e.conservative {
		return "parsim"
	}
	return "optsim"
}

// Now returns the current virtual time (the exact GVT).
func (e *Engine) Now() des.Time { return e.now }

// Pending returns the number of scheduled, uncancelled events.
func (e *Engine) Pending() int { return len(e.heap) }

// Executed counts events that have run.
func (e *Engine) Executed() uint64 { return e.executed }

// schedule answers the straggler ev may be, then inserts it into the
// global heap and its shard's (or the globals') minima heap. A
// same-timestamp arrival is not a straggler: the new event's larger
// sequence number orders it after the in-flight phase.
func (e *Engine) schedule(ev *event) des.Handle {
	if ev.at < e.now {
		panic(fmt.Sprintf("%s: scheduling event at %v before now %v", e.name(), ev.at, e.now))
	}
	if ev.shard >= 0 {
		if le := e.launchedOn[ev.shard]; le != nil && ev.at < le.at {
			e.rollback(ev.shard, "shard event", ev.at)
		}
	} else if e.inFlight > 0 {
		for s, le := range e.launchedOn {
			if le != nil && ev.at < le.at {
				e.rollback(s, "global event", ev.at)
			}
		}
	}
	ev.seq = e.seq
	e.seq++
	if ev.shard >= 0 {
		e.shardQ[ev.shard].push(ev)
	} else {
		e.globals.push(ev)
	}
	heap.Push(&e.heap, ev)
	return des.HandleFor(ev)
}

// At schedules fn as a global event: it runs alone on the driver, with no
// phases in flight.
func (e *Engine) At(t des.Time, fn func()) des.Handle {
	return e.schedule(&event{at: t, fn: fn, shard: -1})
}

func (e *Engine) checkShard(shard int) {
	if shard < 0 || shard >= len(e.launchedOn) {
		panic(fmt.Sprintf("%s: shard %d out of range [0,%d)", e.name(), shard, len(e.launchedOn)))
	}
}

// AtShardFn schedules a two-phase event on a shard from a preallocated
// PhaseFn.
func (e *Engine) AtShardFn(shard int, t des.Time, fn des.PhaseFn, a any, b int64) des.Handle {
	e.checkShard(shard)
	return e.schedule(&event{at: t, pfn: fn, a: a, b: b, shard: shard})
}

// AtShardCommit schedules a sharded event whose entire body runs at commit
// position on the driver. It participates in shard ordering (the launch
// scan never runs a later same-shard phase past it, and an arrival in an
// in-flight phase's past is a straggler) but is never handed to a worker:
// its body may touch global state, exactly like any commit.
func (e *Engine) AtShardCommit(shard int, t des.Time, fn des.CommitFn, a any, b int64) des.Handle {
	e.checkShard(shard)
	return e.schedule(&event{at: t, cfn: fn, a: a, b: b, shard: shard})
}

// After schedules fn to run d seconds from now as a global event.
func (e *Engine) After(d des.Time, fn func()) des.Handle {
	if d < 0 {
		panic(fmt.Sprintf("%s: negative delay %v", e.name(), d))
	}
	return e.At(e.now+d, fn)
}

// Cancel removes a scheduled event. Cancelling an event whose phase is in
// flight is a straggler: the optimistic policy rolls the phase back first,
// the conservative one panics (the cancellation arrived later than the
// lookahead promised possible). Cancelling an already-fired or
// already-cancelled event is a no-op.
func (e *Engine) Cancel(h des.Handle) {
	ref := h.EventRef()
	if ref == nil {
		return
	}
	ev, ok := ref.(*event)
	if !ok {
		panic(e.name() + ": Cancel of a handle from a different engine")
	}
	if ev.pos < 0 {
		return
	}
	if ev.launched {
		e.rollback(ev.shard, "Cancel", e.now)
	}
	heap.Remove(&e.heap, ev.pos)
}

// Stop makes Run return before the next pop.
func (e *Engine) Stop() { e.stopped = true }

// Run executes events until the queue drains or Stop is called, then ends
// the in-flight phases as the policy says: rolled back (optimistic), so
// the machine state Run leaves behind is exactly the sequential engine's
// at the same stop point, or withheld (conservative), to commit if a later
// Run pops them.
func (e *Engine) Run() {
	e.stopped = false
	defer e.shutdownPool()
	defer e.rollbackAll()
	for !e.stopped && len(e.heap) > 0 {
		e.step(des.Forever)
	}
}

// RunUntil executes events with timestamps <= t, then advances the clock
// to t (if it is ahead of the last event). In-flight phases end as in Run.
func (e *Engine) RunUntil(t des.Time) {
	e.stopped = false
	defer e.shutdownPool()
	defer e.rollbackAll()
	for !e.stopped && len(e.heap) > 0 && e.heap[0].at <= t {
		e.step(t)
	}
	if e.now < t {
		e.now = t
	}
}

// step launches eligible phases, then pops and commits the next event in
// heap order. horizon (inclusive) bounds execution for RunUntil.
func (e *Engine) step(horizon des.Time) {
	e.launch(horizon)
	ev := heap.Pop(&e.heap).(*event)
	e.now = ev.at // the exact GVT: nothing at or below this can roll back
	e.executed++

	if ev.shard < 0 {
		// The launch rule never runs a phase past the earliest pending
		// global, and schedule answers globals that a later one would
		// precede — so a popping global always finds zero phases in flight.
		if e.inFlight > 0 {
			e.drainLaunched()
			panic(fmt.Sprintf("%s: internal: global event at t=%v popped with %d phases in flight", e.name(), ev.at, e.inFlight))
		}
		e.stats.Global++
		ev.fn()
		if e.probe != nil {
			e.probe.EventExecuted(ev.shard, ev.at, len(e.heap))
		}
		return
	}

	if e.sink != nil {
		e.sink.PhaseStart(ev.shard, ev.at)
	}
	var commit func()
	var stallNs int64
	launched := ev.launched
	if launched {
		if e.launchedOn[ev.shard] != ev {
			panic(e.name() + ": internal: popped a launched event that is not its shard's in-flight phase")
		}
		e.launchedOn[ev.shard] = nil
		e.inFlight--
		if e.probe != nil {
			t0 := e.probe.WallNow()
			<-ev.done
			stallNs = e.probe.WallNow() - t0
		} else {
			<-ev.done
		}
		if ev.panicked {
			// Re-raise deterministically in pop order, not worker order.
			// No PhaseDone: the sequential engine panics out of the phase
			// body before reaching its PhaseDone too.
			e.drainLaunched()
			panic(ev.pval)
		}
		e.stats.Committed++
		commit = ev.commit
	} else {
		if e.launchedOn[ev.shard] != nil {
			panic(e.name() + ": internal: shard event popped past its in-flight phase")
		}
		e.stats.Inline++
		if ev.cfn != nil {
			ev.cfn(ev.a, ev.b, ev.at)
		} else {
			commit = ev.pfn(ev.a, ev.b, ev.at)
		}
	}
	if commit != nil {
		commit()
	}
	if launched {
		// Fossil collection: the commit frontier passed this speculation,
		// so its snapshot can never be needed again.
		if e.ctrl != nil {
			e.ctrl.CommitSpec(ev.shard)
		}
		if e.ssink != nil {
			e.ssink.SpecCommit(ev.shard, ev.at)
		}
	}
	if e.sink != nil {
		e.sink.PhaseDone(ev.shard, ev.at)
	}
	if e.probe != nil {
		if launched {
			e.probe.PhaseWall(ev.shard, ev.at, e.probe.WallNow()-ev.launchNs, stallNs, !e.conservative)
		}
		e.probe.EventExecuted(ev.shard, ev.at, len(e.heap))
	}
}

// launch applies the launch rule (see the package comment) to every shard
// with nothing in flight.
func (e *Engine) launch(horizon des.Time) {
	if len(e.launchedOn) < 2 || len(e.heap) < 2 {
		return
	}
	top := e.heap[0]
	limit := des.Forever
	switch {
	case e.conservative && e.window <= 0:
		return // no lookahead: nothing may run early
	case !e.conservative && e.ctrl == nil:
		return // nothing could undo a speculation
	case e.window > 0:
		limit = top.at + e.window
	}
	minGlobal := e.globals.peek()
	for s := range e.shardQ {
		if e.launchedOn[s] != nil {
			continue
		}
		ev := e.shardQ[s].peek()
		if ev == nil || ev == top || ev.cfn != nil {
			continue
		}
		if ev.at >= limit || ev.at > horizon {
			continue
		}
		if minGlobal != nil && precedes(minGlobal, ev) {
			continue
		}
		e.launchEvent(ev)
	}
	if e.conservative && e.inFlight == 0 && e.probe != nil {
		// The heap held work beyond the top but nothing could overlap the
		// coming pop: the lookahead window stalled the pipeline this step.
		e.probe.WindowStall(top.at)
	}
}

// launchEvent hands one event's phase to the worker pool.
func (e *Engine) launchEvent(ev *event) {
	if e.jobs == nil {
		e.jobs = make(chan *event, len(e.launchedOn))
		for w := 0; w < e.workers; w++ {
			e.poolWG.Add(1)
			//charmvet:parsim (phase workers execute shard-disjoint events; a straggler rolls back or panics)
			go e.worker()
		}
	}
	if e.ctrl != nil {
		e.ctrl.BeginSpec(ev.shard)
	}
	ev.launched = true
	ev.done = make(chan struct{})
	e.launchedOn[ev.shard] = ev
	e.inFlight++
	if e.inFlight > e.stats.MaxInFlight {
		e.stats.MaxInFlight = e.inFlight
	}
	if lag := ev.at - e.now; lag > e.stats.MaxGVTLag {
		e.stats.MaxGVTLag = lag
	}
	e.stats.Launched++
	if e.ssink != nil {
		e.ssink.SpecLaunch(ev.shard, ev.at)
	}
	if e.probe != nil {
		ev.launchNs = e.probe.WallNow()
		if !e.conservative {
			e.probe.SpecLaunched(ev.shard, ev.at, ev.at-e.now)
		}
	}
	e.jobs <- ev
}

// rollback undoes shard s's in-flight phase because what (at t) reached
// its past: wait for the phase, discard its withheld commit (the sends it
// buffered never entered the network — dropping the closure is the
// anti-message), and let the controller restore the shard-local state the
// phase mutated. The event itself stays scheduled and runs again at or
// before its pop. Under the conservative policy the lookahead promised
// this impossible, so it panics instead.
func (e *Engine) rollback(s int, what string, t des.Time) {
	ev := e.launchedOn[s]
	if e.conservative {
		panic(fmt.Sprintf("parsim: lookahead violation: %s at t=%v reached shard %d's in-flight phase at t=%v",
			what, t, s, ev.at))
	}
	var waitNs int64
	if e.probe != nil {
		t0 := e.probe.WallNow()
		<-ev.done
		waitNs = e.probe.WallNow() - t0
	} else {
		<-ev.done
	}
	e.launchedOn[s] = nil
	e.inFlight--
	ev.launched = false
	ev.done = nil
	ev.commit = nil
	ev.pval, ev.panicked = nil, false
	e.ctrl.RollbackSpec(s)
	e.stats.RolledBack++
	if e.ssink != nil {
		e.ssink.SpecRollback(s, ev.at)
	}
	if e.probe != nil {
		e.probe.SpecRolledBack(s, ev.at, waitNs)
	}
}

// rollbackAll undoes every in-flight speculation at run exit; the
// conservative policy withholds them instead.
func (e *Engine) rollbackAll() {
	if e.conservative {
		return
	}
	for s, le := range e.launchedOn {
		if le != nil {
			e.rollback(s, "run exit", e.now)
		}
	}
}

// worker drains the job channel, running one phase at a time.
func (e *Engine) worker() {
	defer e.poolWG.Done()
	for ev := range e.jobs {
		runPhase(ev)
	}
}

// runPhase executes one event's phase, capturing panics so the driver can
// re-raise them in deterministic pop order (or discard them on rollback —
// a straggler that would have prevented the panic sequentially prevents it
// here too, by rolling the panicked speculation back before its pop).
func runPhase(ev *event) {
	defer close(ev.done)
	defer func() {
		if r := recover(); r != nil {
			ev.pval, ev.panicked = r, true
		}
	}()
	ev.commit = ev.pfn(ev.a, ev.b, ev.at)
}

// drainLaunched waits for every in-flight phase; their cached commits stay
// attached to their (still-pending) events.
func (e *Engine) drainLaunched() {
	for _, ev := range e.heap {
		if ev != nil && ev.launched {
			<-ev.done
		}
	}
}

// shutdownPool stops the workers after finishing all handed-out phases, so
// no goroutine outlives Run/RunUntil.
func (e *Engine) shutdownPool() {
	if e.jobs == nil {
		return
	}
	close(e.jobs)
	e.poolWG.Wait()
	e.jobs = nil
	e.drainLaunched()
}
