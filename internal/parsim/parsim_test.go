package parsim

import (
	"testing"
	"time"

	"charmgo/internal/des"
)

// mkEngine returns an engine with a lookahead window of 1.0 over `shards`
// shards — wide enough that admission is governed purely by the tests'
// chosen timestamps.
func mkEngine(shards, workers int) *Engine {
	return New(Options{Lookahead: 1.0, Shards: shards, Workers: workers})
}

// atShard schedules a one-off two-phase closure through des.ClosurePhase.
func atShard(e *Engine, shard int, t des.Time, fn func() func()) {
	e.AtShardFn(shard, t, des.ClosurePhase, fn, 0)
}

// TestCommitOrderMatchesSequential schedules events across shards inside
// one window and checks the commit order is the (timestamp, seq) heap
// order, not the phase completion order.
func TestCommitOrderMatchesSequential(t *testing.T) {
	e := mkEngine(4, 4)
	var order []int
	for i := 0; i < 4; i++ {
		i := i
		atShard(e, i, 0.1+0.01*des.Time(i), func() func() {
			return func() { order = append(order, i) }
		})
	}
	e.Run()
	for i, got := range order {
		if got != i {
			t.Fatalf("commit order %v, want shards in timestamp order", order)
		}
	}
	if e.Executed() != 4 {
		t.Fatalf("executed %d, want 4", e.Executed())
	}
}

// TestPhasesRunConcurrently proves the pipeline actually fans out: the
// second event's phase is launched on a worker before the driver runs the
// top event's phase inline, so the two phases overlap by construction.
func TestPhasesRunConcurrently(t *testing.T) {
	e := mkEngine(2, 2)
	peerStarted := make(chan struct{})
	atShard(e, 0, 0.100, func() func() {
		select {
		case <-peerStarted: // the launched phase ran while we were running
		case <-time.After(5 * time.Second):
			t.Error("in-flight phase never started while the driver phase ran")
		}
		return nil
	})
	atShard(e, 1, 0.101, func() func() {
		close(peerStarted)
		return nil
	})
	e.Run()
}

// TestSpawnedContinuationsRunInOrder: a commit spawns a same-shard
// continuation whose timestamp precedes an event whose phase may already
// be in flight. The sequential order A(0.10), A'(0.11), B(0.12) must be
// preserved even though B's phase can run before A commits.
func TestSpawnedContinuationsRunInOrder(t *testing.T) {
	e := mkEngine(2, 2)
	var order []string
	atShard(e, 0, 0.10, func() func() {
		return func() {
			order = append(order, "A")
			atShard(e, 0, 0.11, func() func() {
				return func() { order = append(order, "A'") }
			})
		}
	})
	atShard(e, 1, 0.12, func() func() {
		return func() { order = append(order, "B") }
	})
	e.Run()
	want := []string{"A", "A'", "B"}
	for i := range want {
		if i >= len(order) || order[i] != want[i] {
			t.Fatalf("commit order %v, want %v", order, want)
		}
	}
	if e.Now() != 0.12 {
		t.Fatalf("clock %v after run, want 0.12", e.Now())
	}
}

// TestScheduleBeforeInFlightPhasePanics: a commit that schedules work
// preceding an in-flight phase on another shard means the lookahead bound
// was wrong; the engine must fail loudly instead of diverging.
func TestScheduleBeforeInFlightPhasePanics(t *testing.T) {
	e := mkEngine(2, 2)
	atShard(e, 0, 0.10, func() func() {
		return func() {
			// Shard 1's event at 0.11 is in flight; scheduling below it
			// violates the lookahead promise.
			atShard(e, 1, 0.105, func() func() { return nil })
		}
	})
	atShard(e, 1, 0.11, func() func() { return nil })
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic scheduling before an in-flight phase")
		}
	}()
	e.Run()
}

// TestGlobalScheduleBeforeInFlightPhasePanics: same violation, global
// flavour — a global event may touch any shard, so it must never be
// scheduled below a launched phase.
func TestGlobalScheduleBeforeInFlightPhasePanics(t *testing.T) {
	e := mkEngine(2, 2)
	atShard(e, 0, 0.10, func() func() {
		return func() {
			e.At(0.105, func() {})
		}
	})
	atShard(e, 1, 0.11, func() func() { return nil })
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic scheduling a global below an in-flight phase")
		}
	}()
	e.Run()
}

// TestGlobalEventsRunSolo: a global event never joins a batch, so it may
// freely touch all shards.
func TestGlobalEventsRunSolo(t *testing.T) {
	e := mkEngine(4, 4)
	var order []string
	atShard(e, 0, 0.10, func() func() { return func() { order = append(order, "s0") } })
	e.At(0.105, func() { order = append(order, "g") })
	atShard(e, 1, 0.11, func() func() { return func() { order = append(order, "s1") } })
	e.Run()
	want := []string{"s0", "g", "s1"}
	for i := range want {
		if i >= len(order) || order[i] != want[i] {
			t.Fatalf("order %v, want %v", order, want)
		}
	}
}

// TestRunUntil bounds launches by the horizon and advances the clock.
func TestRunUntil(t *testing.T) {
	e := mkEngine(2, 2)
	var ran []des.Time
	for _, at := range []des.Time{0.1, 0.2, 0.9} {
		at := at
		atShard(e, int(at*10)%2, at, func() func() {
			return func() { ran = append(ran, at) }
		})
	}
	e.RunUntil(0.5)
	if len(ran) != 2 {
		t.Fatalf("ran %v, want the two events <= 0.5", ran)
	}
	if e.Now() != 0.5 {
		t.Fatalf("clock %v, want 0.5", e.Now())
	}
	e.RunUntil(1.0)
	if len(ran) != 3 || e.Now() != 1.0 {
		t.Fatalf("ran %v now %v, want all three events and now=1.0", ran, e.Now())
	}
}

// TestStopWithholdsUncommittedPhases: Stop from a commit returns before
// the next pop; an in-flight phase finishes on its worker but its commit
// is withheld — global state stops exactly where the sequential engine
// would — and applies if a later Run pops the event.
func TestStopWithholdsUncommittedPhases(t *testing.T) {
	e := mkEngine(2, 2)
	var committed []int
	atShard(e, 0, 0.1, func() func() {
		return func() {
			committed = append(committed, 0)
			e.Stop()
		}
	})
	atShard(e, 1, 0.1001, func() func() {
		return func() { committed = append(committed, 1) }
	})
	e.Run()
	if len(committed) != 1 || committed[0] != 0 {
		t.Fatalf("committed %v after Stop, want [0]", committed)
	}
	e.Run() // resuming applies the cached commit in order
	if len(committed) != 2 || committed[1] != 1 {
		t.Fatalf("committed %v after resume, want [0 1]", committed)
	}
}

// TestGlobalHorizonIsLatestLaunch: with a phase in flight, the safe horizon
// for a global event is that phase's timestamp, read from the in-flight
// launches, and a global scheduled exactly there passes the lookahead
// guard.
func TestGlobalHorizonIsLatestLaunch(t *testing.T) {
	e := mkEngine(2, 2)
	var horizon des.Time = -1
	atShard(e, 0, 0.25, func() func() {
		return func() {
			horizon = des.EngineHorizon(e)
			e.At(horizon, func() {})
		}
	})
	atShard(e, 1, 0.75, func() func() { return nil })
	e.Run()
	if horizon != 0.75 {
		t.Fatalf("horizon %v with a phase at 0.75 in flight, want 0.75", horizon)
	}
	if e.Executed() != 3 {
		t.Fatalf("executed %d, want 3", e.Executed())
	}
	if got := des.EngineHorizon(e); got != e.Now() {
		t.Fatalf("horizon %v after the run, want Now()=%v", got, e.Now())
	}
}

// TestPhasePanicPropagatesDeterministically: the first panicking event in
// heap order is the one re-raised, regardless of worker interleaving.
func TestPhasePanicPropagatesDeterministically(t *testing.T) {
	e := mkEngine(4, 4)
	for i := 0; i < 4; i++ {
		i := i
		atShard(e, i, 0.1+0.001*des.Time(i), func() func() {
			if i >= 1 {
				panic(i)
			}
			return nil
		})
	}
	defer func() {
		if r := recover(); r != 1 {
			t.Fatalf("recovered %v, want panic value 1 (lowest panicking event)", r)
		}
	}()
	e.Run()
}
