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
// The engine keeps its events in a des.Store — the slab/calendar store
// des.Sequential drains, so events pop in exactly the sequential engine's
// order — and a single driving goroutine pops and commits them strictly in
// that order. Parallelism comes from running event *phases* early: a
// sharded event's body is split by the runtime into a phase (reads and
// writes only its shard's state, buffers everything else) and a commit
// closure (applies the buffered global effects).
//
// One launch rule serves both policies. Before every pop, each shard's
// earliest pending event is handed to a worker if it is a two-phase event
// (commit-only bodies touch global state and run at their pop), is not the
// queue head (the driver runs that inline, overlapping the launches),
// precedes the earliest pending global event, lies within a RunUntil
// horizon, and lies before the launch limit top+W, where top is the queue
// head's timestamp and W the policy's window. A per-shard min-heap of
// (timestamp, sequence, slot) keys tracks the shard minima, so the scan
// costs O(shards); events leave the store only by pop, and a popped event
// is always its shard's minimum, so the key heaps pop in step with the
// store. At most one phase per shard is ever in flight, and never one that
// follows a pending global, so a global always pops with nothing in flight
// and may touch every shard.
//
// A launched phase stays queued in the store until its pop. Its in-flight
// state lives in a per-shard record allocated once, in New: a copy of the
// phase's (fn, a, b, at), the commit and panic value the worker hands
// back, and a one-slot completion channel. Workers read only that record,
// never the store, which the driver may grow while phases run, so a launch
// allocates nothing. Each launch's completion is received exactly once: at
// the event's pop or at its rollback.
//
// The pop loop then proceeds exactly like the sequential engine: take the
// queue head, set the clock to its timestamp, run its commit (waiting for
// the phase if a worker has it). Events whose phases were never launched
// run inline on the driver.
//
// # The two policies
//
// Phases touch only shard-local state, and shard state is mutated only by
// that shard's own events, so the one way an early phase can be wrong is
// new work scheduled into its past — a straggler. Every scheduling entry
// point checks for one. The policies differ in what the window is and what
// a straggler means:
//
//	                   optimistic (New)              conservative (NewConservative)
//	window W           Options.Window, 0 = unbounded lookahead α, 0 = no early launch
//	straggler          roll the shard back           lookahead-violation panic
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
	// top+Window) of the queue head. For the optimistic policy it bounds
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

// flight is a shard's in-flight phase record, allocated once in New and
// reused by every launch on the shard.
type flight struct {
	done chan struct{} // one slot: the worker's completion signal

	// Written by the driver before the job is handed out; read by the
	// worker.
	fn des.PhaseFn
	a  any
	b  int64
	at des.Time

	// Written by the worker before it signals done; read by the driver
	// after receiving the signal.
	commit   func()
	pval     any // captured phase panic, re-raised at pop
	panicked bool

	// Driver-only.
	active   bool  // launched and not yet popped or rolled back
	id       int32 // the launched event's store slot
	launchNs int64 // wall stamp at launch, 0 unless a probe is installed
}

// run executes the phase on a worker, capturing a panic so the driver can
// re-raise it in deterministic pop order (or discard it on rollback — a
// straggler that would have prevented the panic sequentially prevents it
// here too, by rolling the panicked speculation back before its pop).
func (f *flight) run() {
	defer func() {
		if r := recover(); r != nil {
			f.pval, f.panicked = r, true
		}
		f.done <- struct{}{}
	}()
	f.commit = f.fn(f.a, f.b, f.at)
}

// key is a queued event's place in the total (timestamp, sequence) order
// plus its store slot.
type key struct {
	at  des.Time
	seq uint64
	id  int32
}

func (k key) less(o key) bool {
	if k.at != o.at {
		return k.at < o.at
	}
	return k.seq < o.seq
}

// keyHeap is a binary min-heap of keys. The engine keeps one per shard
// (tracking each shard's earliest pending event) and one for globals, so
// the launch scan never walks the store.
type keyHeap []key

func (h *keyHeap) push(k key) {
	a := append(*h, k)
	i := len(a) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !k.less(a[p]) {
			break
		}
		a[i] = a[p]
		i = p
	}
	a[i] = k
	*h = a
}

// pop removes and returns the earliest key.
func (h *keyHeap) pop() key {
	a := *h
	top, n := a[0], len(a)-1
	last := a[n]
	a = a[:n]
	if n > 0 {
		i := 0
		for {
			c := 2*i + 1
			if c >= n {
				break
			}
			if r := c + 1; r < n && a[r].less(a[c]) {
				c = r
			}
			if !a[c].less(last) {
				break
			}
			a[i] = a[c]
			i = c
		}
		a[i] = last
	}
	*h = a
	return top
}

// Engine is the parallel event executor. It satisfies des.Engine. Its
// methods must be called from the driving goroutine (or from an event's
// commit) — the parallelism is internal.
type Engine struct {
	store    des.Store
	now      des.Time
	stopped  bool
	executed uint64

	conservative bool     // the policy; see the package comment's table
	window       des.Time // W: the optimism window or the lookahead
	workers      int
	ctrl         Controller

	// Worker pool, alive only while Run/RunUntil executes.
	jobs   chan *flight
	poolWG sync.WaitGroup

	// In-flight phase tracking, owned by the driver.
	flights  []flight // per shard
	inFlight int      // count of active flights

	// Shard minima and pending globals, for the O(shards) launch scan.
	shardQ  []keyHeap
	globals keyHeap

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
	RolledBack  uint64   // speculations undone by a straggler or run exit
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
		for i := range e.flights {
			if f := &e.flights[i]; f.active && f.at > h {
				h = f.at
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
	for i := range e.flights {
		if f := &e.flights[i]; f.active && f.at-e.now > lag {
			lag = f.at - e.now
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
	shards := max(opts.Shards, 1)
	e := &Engine{
		conservative: conservative,
		window:       opts.Window,
		workers:      w,
		flights:      make([]flight, shards),
		shardQ:       make([]keyHeap, shards),
	}
	for i := range e.flights {
		e.flights[i].done = make(chan struct{}, 1)
	}
	return e
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

// Pending returns the number of scheduled events not yet popped, launched
// ones included.
func (e *Engine) Pending() int { return e.store.Len() }

// Executed counts events that have run.
func (e *Engine) Executed() uint64 { return e.executed }

// schedule queues ev in the store and in its shard's (or the globals')
// key heap, then answers the straggler it may be. A same-timestamp arrival
// is not a straggler: the new event's larger sequence number orders it
// after the in-flight phase.
func (e *Engine) schedule(ev des.Event) {
	id, seq := e.store.Push(e.now, ev)
	k := key{at: ev.At, seq: seq, id: id}
	if ev.Shard < 0 {
		e.globals.push(k)
		if e.inFlight > 0 {
			for s := range e.flights {
				if f := &e.flights[s]; f.active && ev.At < f.at {
					e.rollback(s, "global event", ev.At)
				}
			}
		}
		return
	}
	e.shardQ[ev.Shard].push(k)
	if f := &e.flights[ev.Shard]; f.active && ev.At < f.at {
		e.rollback(ev.Shard, "shard event", ev.At)
	}
}

// At schedules fn as a global event: it runs alone on the driver, with no
// phases in flight.
func (e *Engine) At(t des.Time, fn func()) {
	e.schedule(des.Event{At: t, Shard: -1, Fn: fn})
}

func (e *Engine) checkShard(shard int) {
	if shard < 0 || shard >= len(e.flights) {
		panic(fmt.Sprintf("%s: shard %d out of range [0,%d)", e.name(), shard, len(e.flights)))
	}
}

// AtShardFn schedules a two-phase event on a shard from a preallocated
// PhaseFn.
func (e *Engine) AtShardFn(shard int, t des.Time, fn des.PhaseFn, a any, b int64) {
	e.checkShard(shard)
	e.schedule(des.Event{At: t, Shard: shard, Phase: fn, A: a, B: b})
}

// AtShardCommit schedules a sharded event whose entire body runs at commit
// position on the driver. It participates in shard ordering (the launch
// scan never runs a later same-shard phase past it, and an arrival in an
// in-flight phase's past is a straggler) but is never handed to a worker:
// its body may touch global state, exactly like any commit.
func (e *Engine) AtShardCommit(shard int, t des.Time, fn des.CommitFn, a any, b int64) {
	e.checkShard(shard)
	e.schedule(des.Event{At: t, Shard: shard, Commit: fn, A: a, B: b})
}

// After schedules fn to run d seconds from now as a global event.
func (e *Engine) After(d des.Time, fn func()) {
	if !(d >= 0) {
		panic(fmt.Sprintf("%s: negative delay %v", e.name(), d))
	}
	e.At(e.now+d, fn)
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
	for !e.stopped && e.store.Len() > 0 {
		e.step(des.Forever)
	}
}

// RunUntil executes events with timestamps <= t, then advances the clock
// to t (if it is ahead of the last event). In-flight phases end as in Run.
func (e *Engine) RunUntil(t des.Time) {
	e.stopped = false
	defer e.shutdownPool()
	defer e.rollbackAll()
	for !e.stopped {
		if id, ok := e.store.Peek(); !ok || e.store.Event(id).At > t {
			break
		}
		e.step(t)
	}
	if e.now < t {
		e.now = t
	}
}

// step launches eligible phases, then pops and commits the next event in
// (timestamp, sequence) order. horizon (inclusive) bounds execution for
// RunUntil.
func (e *Engine) step(horizon des.Time) {
	e.launch(horizon)
	ev, _ := e.store.Pop()
	e.now = ev.At // the exact GVT: nothing at or below this can roll back
	e.executed++

	if ev.Shard < 0 {
		e.globals.pop()
		// The launch rule never runs a phase past the earliest pending
		// global, and schedule answers globals that a later one would
		// precede — so a popping global always finds zero phases in flight.
		if e.inFlight > 0 {
			panic(fmt.Sprintf("%s: internal: global event at t=%v popped with %d phases in flight", e.name(), ev.At, e.inFlight))
		}
		e.stats.Global++
		ev.Fn()
		if e.probe != nil {
			e.probe.EventExecuted(ev.Shard, ev.At, e.store.Len())
		}
		return
	}
	k := e.shardQ[ev.Shard].pop()

	if e.sink != nil {
		e.sink.PhaseStart(ev.Shard, ev.At)
	}
	var commit func()
	var stallNs int64
	f := &e.flights[ev.Shard]
	launched := f.active
	if launched {
		if f.id != k.id {
			panic(e.name() + ": internal: shard event popped past its in-flight phase")
		}
		stallNs = e.land(ev.Shard)
		if f.panicked {
			// Re-raise deterministically in pop order, not worker order.
			// No PhaseDone: the sequential engine panics out of the phase
			// body before reaching its PhaseDone too.
			panic(f.pval)
		}
		e.stats.Committed++
		commit = f.commit
	} else {
		e.stats.Inline++
		if ev.Commit != nil {
			ev.Commit(ev.A, ev.B, ev.At)
		} else {
			commit = ev.Phase(ev.A, ev.B, ev.At)
		}
	}
	if commit != nil {
		commit()
	}
	if launched {
		// Fossil collection: the commit frontier passed this speculation,
		// so its snapshot can never be needed again.
		if e.ctrl != nil {
			e.ctrl.CommitSpec(ev.Shard)
		}
		if e.ssink != nil {
			e.ssink.SpecCommit(ev.Shard, ev.At)
		}
	}
	if e.sink != nil {
		e.sink.PhaseDone(ev.Shard, ev.At)
	}
	if e.probe != nil {
		if launched {
			e.probe.PhaseWall(ev.Shard, ev.At, e.probe.WallNow()-f.launchNs, stallNs, !e.conservative)
		}
		e.probe.EventExecuted(ev.Shard, ev.At, e.store.Len())
	}
}

// launch applies the launch rule (see the package comment) to every shard
// with nothing in flight.
func (e *Engine) launch(horizon des.Time) {
	if len(e.flights) < 2 || e.store.Len() < 2 {
		return
	}
	topID, _ := e.store.Peek()
	topAt := e.store.Event(topID).At
	limit := des.Forever
	switch {
	case e.conservative && e.window <= 0:
		return // no lookahead: nothing may run early
	case !e.conservative && e.ctrl == nil:
		return // nothing could undo a speculation
	case e.window > 0:
		limit = topAt + e.window
	}
	for s, q := range e.shardQ {
		if len(q) == 0 || e.flights[s].active {
			continue
		}
		k := q[0]
		if k.id == topID || k.at >= limit || k.at > horizon {
			continue
		}
		if len(e.globals) > 0 && e.globals[0].less(k) {
			continue
		}
		if ev := e.store.Event(k.id); ev.Commit == nil {
			e.launchPhase(s, k.id, ev)
		}
	}
	if e.conservative && e.inFlight == 0 && e.probe != nil {
		// The queue held work beyond the head but nothing could overlap
		// the coming pop: the lookahead window stalled the pipeline this
		// step.
		e.probe.WindowStall(topAt)
	}
}

// launchPhase hands shard s's earliest event, ev in store slot id, to the
// worker pool.
func (e *Engine) launchPhase(s int, id int32, ev *des.Event) {
	if e.jobs == nil {
		e.jobs = make(chan *flight, len(e.flights))
		for w := 0; w < e.workers; w++ {
			e.poolWG.Add(1)
			//charmvet:parsim (phase workers execute shard-disjoint events; a straggler rolls back or panics)
			go e.worker()
		}
	}
	if e.ctrl != nil {
		e.ctrl.BeginSpec(s)
	}
	f := &e.flights[s]
	f.fn, f.a, f.b, f.at = ev.Phase, ev.A, ev.B, ev.At
	f.commit, f.pval, f.panicked = nil, nil, false
	f.active, f.id = true, id
	e.inFlight++
	if e.inFlight > e.stats.MaxInFlight {
		e.stats.MaxInFlight = e.inFlight
	}
	if lag := f.at - e.now; lag > e.stats.MaxGVTLag {
		e.stats.MaxGVTLag = lag
	}
	e.stats.Launched++
	if e.ssink != nil {
		e.ssink.SpecLaunch(s, f.at)
	}
	if e.probe != nil {
		f.launchNs = e.probe.WallNow()
		if !e.conservative {
			e.probe.SpecLaunched(s, f.at, f.at-e.now)
		}
	}
	e.jobs <- f
}

// land receives shard s's completion signal — the one receive its launch
// gets — and retires the flight. It returns how long the driver waited (0
// without a probe).
func (e *Engine) land(s int) int64 {
	f := &e.flights[s]
	var waitNs int64
	if e.probe != nil {
		t0 := e.probe.WallNow()
		<-f.done
		waitNs = e.probe.WallNow() - t0
	} else {
		<-f.done
	}
	f.active = false
	e.inFlight--
	return waitNs
}

// rollback undoes shard s's in-flight phase because what (at t) reached
// its past: wait for the phase, discard its withheld commit (the sends it
// buffered never entered the network — dropping the closure is the
// anti-message), and let the controller restore the shard-local state the
// phase mutated. The event itself stays queued and runs again at or
// before its pop. Under the conservative policy the lookahead promised
// this impossible, so it panics instead.
func (e *Engine) rollback(s int, what string, t des.Time) {
	f := &e.flights[s]
	if e.conservative {
		panic(fmt.Sprintf("parsim: lookahead violation: %s at t=%v reached shard %d's in-flight phase at t=%v",
			what, t, s, f.at))
	}
	waitNs := e.land(s)
	e.ctrl.RollbackSpec(s)
	e.stats.RolledBack++
	if e.ssink != nil {
		e.ssink.SpecRollback(s, f.at)
	}
	if e.probe != nil {
		e.probe.SpecRolledBack(s, f.at, waitNs)
	}
}

// rollbackAll undoes every in-flight speculation at run exit; the
// conservative policy withholds them instead.
func (e *Engine) rollbackAll() {
	if e.conservative {
		return
	}
	for s := range e.flights {
		if e.flights[s].active {
			e.rollback(s, "run exit", e.now)
		}
	}
}

// worker drains the job channel, running one phase at a time.
func (e *Engine) worker() {
	defer e.poolWG.Done()
	for f := range e.jobs {
		f.run()
	}
}

// shutdownPool stops the workers after they finish every handed-out
// phase, so no goroutine outlives Run/RunUntil. A withheld phase's
// completion signal stays in its one-slot channel for the pop that
// consumes it.
func (e *Engine) shutdownPool() {
	if e.jobs == nil {
		return
	}
	close(e.jobs)
	e.poolWG.Wait()
	e.jobs = nil
}
