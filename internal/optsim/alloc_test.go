package optsim_test

import (
	"testing"

	"charmgo/internal/des"
	"charmgo/internal/parsim"
)

// relay passes one token per shard around a ring of shards: each phase
// bumps its shard's counter and its commit forwards the token to the next
// shard, alpha later. The tokens start staggered within alpha of each
// other, so every pop finds other shards' phases inside the lookahead and
// the core launches them. Phases and commits are long-lived function
// values, so the workload itself allocates nothing per event.
type relay struct {
	e       des.Engine
	alpha   des.Time
	count   []int64
	left    int
	phaseFn des.PhaseFn
	commits []func()
}

func newRelay(e des.Engine, shards int, alpha des.Time) *relay {
	r := &relay{e: e, alpha: alpha, count: make([]int64, shards)}
	r.phaseFn = r.phase
	for s := range shards {
		next := (s + 1) % shards
		r.commits = append(r.commits, func() {
			if r.left > 0 {
				r.left--
				r.e.AtShardFn(next, r.e.Now()+r.alpha, r.phaseFn, nil, int64(next))
			}
		})
	}
	return r
}

func (r *relay) phase(_ any, s int64, _ des.Time) func() {
	r.count[s]++
	return r.commits[s]
}

// run releases one token per shard and runs until n follow-ons have been
// forwarded, executing len(count)+n events.
func (r *relay) run(n int) {
	r.left = n
	step := r.alpha / des.Time(2*len(r.count))
	for s := range r.count {
		r.e.AtShardFn(s, r.e.Now()+des.Time(s)*step, r.phaseFn, nil, int64(s))
	}
	r.e.Run()
}

// TestCoreScheduleLaunchAllocFree pins the parallel core's steady-state
// schedule→launch→pop cycle at des.Sequential's budget (alloc_test.go in
// internal/des): events live in the shared slab store, and a launch reuses
// its shard's in-flight record and completion channel. The only
// allocations left are the worker pool each Run starts, amortized here
// over thousands of events.
func TestCoreScheduleLaunchAllocFree(t *testing.T) {
	const shards, alpha = 4, des.Time(1.0 / 16)
	for _, pol := range []struct {
		name string
		new  func() (des.Engine, func() uint64)
	}{
		{"conservative", func() (des.Engine, func() uint64) {
			e := parsim.New(parsim.Options{Lookahead: alpha, Shards: shards, Workers: 2})
			return e, func() uint64 { return e.EngineStats().Launched }
		}},
		{"optimistic", func() (des.Engine, func() uint64) {
			e, _ := mkEngine(shards, 2)
			return e, func() uint64 { return e.EngineStats().Launched }
		}},
	} {
		t.Run(pol.name, func(t *testing.T) {
			e, launched := pol.new()
			r := newRelay(e, shards, alpha)
			r.run(20000) // warm the slab, calendar, key heaps and record slots

			const perRun, runs = 2000, 20
			executed, launches := e.Executed(), launched()
			allocs := testing.AllocsPerRun(runs, func() { r.run(perRun) })
			// AllocsPerRun calls the function once more as a warm-up.
			events := float64(e.Executed()-executed) / (runs + 1)
			if events != shards+perRun {
				t.Fatalf("%v events per run, want %d", events, shards+perRun)
			}
			if launched() == launches {
				t.Fatal("no phase launched: the workload does not exercise the launch path")
			}
			perEvent := allocs / events
			t.Logf("schedule→launch→pop allocs/event = %.4f (%d launches)", perEvent, launched()-launches)
			if perEvent > 0.05 {
				t.Fatalf("schedule→launch→pop allocates %.3f per event at steady state, want <= 0.05", perEvent)
			}
		})
	}
}
