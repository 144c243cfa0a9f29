// Package parsim is the conservative parallel execution backend for the
// virtual machine: a des.Engine that executes provably independent event
// phases concurrently on worker goroutines while committing their global
// effects in the exact (timestamp, sequence) order the sequential engine
// would use, so every run is bit-for-bit identical to
// internal/des.Sequential.
//
// It is the conservative policy over internal/optsim's engine core, which
// owns the event store, the launch scan, the worker pool and the commit
// pipeline (see that package's comment for the launch rule and the
// two-policy table). The policy is:
//
//   - Launch limit top+α: a shard's earliest pending phase runs early only
//     inside the lookahead window [t0, t0+α) opened by the queue head, where
//     α is the minimum cross-shard latency of the machine model. α = 0
//     launches nothing early.
//   - No speculation controller: inside the window no straggler can
//     arrive, so nothing is ever rolled back. Wherever the optimistic
//     policy would roll back — new work scheduled before an in-flight
//     phase — the lookahead promise was broken, and the engine panics
//     loudly rather than silently diverging.
//   - Stop withholds, rather than rolls back, the commits of phases still
//     in flight: global state stops exactly where the sequential engine
//     would, and the commits apply if a later Run pops the events.
//   - GlobalHorizon is the latest in-flight launch (or Now, if later), the
//     earliest instant at which a global event can be scheduled safely.
//
// Commits may schedule freely on their own shard and anywhere at or beyond
// the window; the runtime's latency model guarantees every message path
// satisfies the bound.
package parsim

import (
	"charmgo/internal/des"
	"charmgo/internal/optsim"
	"charmgo/internal/projections/metrics"
)

// Options configures an engine.
type Options struct {
	// Lookahead is the conservative window width: the minimum virtual
	// latency of any cross-shard interaction (the machine's α). Zero
	// disables early phase launches (every event runs inline — correct but
	// serial).
	Lookahead des.Time
	// Shards is the number of shards (virtual nodes). Events carry shard
	// ids in [0, Shards).
	Shards int
	// Workers caps the worker goroutines running phases; 0 means
	// GOMAXPROCS.
	Workers int
}

// Engine is the conservative parallel event executor. It satisfies
// des.Engine. Its methods must be called from the driving goroutine (or
// from an event's commit) — the parallelism is internal.
type Engine struct {
	core *optsim.Engine
}

// Stats aggregates scheduling counters over the engine's lifetime; useful
// for judging how much parallelism a workload exposes.
type Stats struct {
	Launched    uint64 // phases run early on worker goroutines, counted at their pop
	Inline      uint64 // sharded events run inline on the driver
	Global      uint64 // global events (always inline)
	MaxInFlight int    // most concurrently launched phases observed
}

// New returns a conservative parallel engine with the clock at zero.
func New(opts Options) *Engine {
	return &Engine{core: optsim.NewConservative(optsim.Options{
		Shards:  opts.Shards,
		Workers: opts.Workers,
		Window:  opts.Lookahead,
	})}
}

// EngineStats returns the scheduling counters accumulated so far. No
// launch is ever rolled back, so a launched phase is counted when its
// commit is used at pop; a phase Stop withholds counts when a later Run
// pops it.
func (e *Engine) EngineStats() Stats {
	s := e.core.EngineStats()
	return Stats{Launched: s.Committed, Inline: s.Inline, Global: s.Global, MaxInFlight: s.MaxInFlight}
}

// RegisterMetrics exposes the engine's scheduling counters through a
// metrics registry.
func (e *Engine) RegisterMetrics(reg *metrics.Registry) {
	reg.GaugeFunc("parsim.phases_launched", func() float64 { return float64(e.EngineStats().Launched) })
	reg.GaugeFunc("parsim.phases_inline", func() float64 { return float64(e.EngineStats().Inline) })
	reg.GaugeFunc("parsim.global_events", func() float64 { return float64(e.EngineStats().Global) })
	reg.GaugeFunc("parsim.max_in_flight", func() float64 { return float64(e.EngineStats().MaxInFlight) })
}

// GlobalHorizon returns the earliest timestamp at which a global event may
// be scheduled without preceding an in-flight phase. Scheduling a global
// At at exactly this horizon never violates the lookahead.
func (e *Engine) GlobalHorizon() des.Time { return e.core.GlobalHorizon() }

// SetTraceSink installs (or, with nil, removes) the engine's phase-event
// sink, called at the pop of each sharded event and after its commit — the
// same positions, in the same total order, as the sequential engine.
func (e *Engine) SetTraceSink(s des.TraceSink) { e.core.SetTraceSink(s) }

// SetProbe installs (or, with nil, removes) the engine's wall-clock
// telemetry probe: launch latency, driver stalls and window stalls.
func (e *Engine) SetProbe(p des.Probe) { e.core.SetProbe(p) }

// The des.Engine methods run on the core; see des.Engine for their
// contracts.

func (e *Engine) Now() des.Time               { return e.core.Now() }
func (e *Engine) Pending() int                { return e.core.Pending() }
func (e *Engine) Executed() uint64            { return e.core.Executed() }
func (e *Engine) Stop()                       { e.core.Stop() }
func (e *Engine) Run()                        { e.core.Run() }
func (e *Engine) RunUntil(t des.Time)         { e.core.RunUntil(t) }
func (e *Engine) At(t des.Time, fn func())    { e.core.At(t, fn) }
func (e *Engine) After(d des.Time, fn func()) { e.core.After(d, fn) }

func (e *Engine) AtShardFn(shard int, t des.Time, fn des.PhaseFn, a any, b int64) {
	e.core.AtShardFn(shard, t, fn, a, b)
}

func (e *Engine) AtShardCommit(shard int, t des.Time, fn des.CommitFn, a any, b int64) {
	e.core.AtShardCommit(shard, t, fn, a, b)
}
