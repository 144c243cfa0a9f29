package optsim_test

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"charmgo/internal/des"
	"charmgo/internal/optsim"
	"charmgo/internal/parsim"
)

// atShard schedules a one-off two-phase closure through des.ClosurePhase.
func atShard(e des.Engine, shard int, t des.Time, fn func() func()) {
	e.AtShardFn(shard, t, des.ClosurePhase, fn, 0)
}

// stateCtrl is a minimal speculation controller for engine-level tests:
// the "shard state" is one int64 per shard, snapshotted at BeginSpec and
// restored at RollbackSpec — the same contract charm's controller honours
// with PUP images.
type stateCtrl struct {
	state, snap []int64

	begun      int
	committed  int
	rolledBack int
}

func newStateCtrl(state []int64) *stateCtrl {
	return &stateCtrl{state: state, snap: make([]int64, len(state))}
}

func (c *stateCtrl) BeginSpec(s int)    { c.snap[s] = c.state[s]; c.begun++ }
func (c *stateCtrl) CommitSpec(int)     { c.committed++ }
func (c *stateCtrl) RollbackSpec(s int) { c.state[s] = c.snap[s]; c.rolledBack++ }

// balanced asserts every speculation was either committed or rolled back.
func (c *stateCtrl) balanced(t *testing.T) {
	t.Helper()
	if c.begun != c.committed+c.rolledBack {
		t.Fatalf("speculation ledger unbalanced: begun %d, committed %d, rolled back %d",
			c.begun, c.committed, c.rolledBack)
	}
}

func mkEngine(shards, workers int) (*optsim.Engine, *stateCtrl) {
	e := optsim.New(optsim.Options{Shards: shards, Workers: workers})
	c := newStateCtrl(make([]int64, shards))
	e.SetController(c)
	return e, c
}

// policies builds an engine under each policy of the shared core, for the
// tests both policies keep: the conservative one with a lookahead of 1.0
// (wide enough that admission is governed purely by the tests' chosen
// timestamps), the optimistic one with a state-restoring controller whose
// ledger check is the policy's post-run assertion.
var policies = []struct {
	name string
	new  func(shards, workers int) (des.Engine, func(*testing.T))
}{
	{"conservative", func(shards, workers int) (des.Engine, func(*testing.T)) {
		return parsim.New(parsim.Options{Lookahead: 1.0, Shards: shards, Workers: workers}), func(*testing.T) {}
	}},
	{"optimistic", func(shards, workers int) (des.Engine, func(*testing.T)) {
		e, c := mkEngine(shards, workers)
		return e, c.balanced
	}},
}

// TestCommitOrderMatchesSequential: commits land in (timestamp, seq) heap
// order regardless of which phases ran early or when they finished.
func TestCommitOrderMatchesSequential(t *testing.T) {
	for _, p := range policies {
		t.Run(p.name, func(t *testing.T) {
			e, check := p.new(4, 4)
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
			check(t)
		})
	}
}

// TestRunUntil bounds execution by the horizon (nothing launches past it)
// and advances the clock.
func TestRunUntil(t *testing.T) {
	for _, p := range policies {
		t.Run(p.name, func(t *testing.T) {
			e, check := p.new(2, 2)
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
			check(t)
		})
	}
}

// TestPhasePanicPropagatesDeterministically: the first panicking event in
// heap order is the one re-raised, regardless of worker interleaving.
func TestPhasePanicPropagatesDeterministically(t *testing.T) {
	for _, p := range policies {
		t.Run(p.name, func(t *testing.T) {
			e, _ := p.new(4, 4)
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
		})
	}
}

// TestSpeculatesPastAnyWindow: the whole point of optimism — a phase five
// virtual seconds past the heap top (far outside any α lookahead) runs
// concurrently with the driver's inline phase.
func TestSpeculatesPastAnyWindow(t *testing.T) {
	e, _ := mkEngine(2, 2)
	peerStarted := make(chan struct{})
	atShard(e, 0, 0.1, func() func() {
		select {
		case <-peerStarted: // the speculated far-future phase already ran
		case <-time.After(5 * time.Second):
			t.Error("speculative phase never started while the driver phase ran")
		}
		return nil
	})
	atShard(e, 1, 5.0, func() func() {
		close(peerStarted)
		return nil
	})
	e.Run()
	if e.EngineStats().Launched == 0 {
		t.Fatal("no speculative launch recorded")
	}
}

// TestWindowBoundsOptimism: with a finite Window the far-future phase is
// not speculated.
func TestWindowBoundsOptimism(t *testing.T) {
	e := optsim.New(optsim.Options{Shards: 2, Workers: 2, Window: 1.0})
	e.SetController(newStateCtrl(make([]int64, 2)))
	atShard(e, 0, 0.1, func() func() { return nil })
	atShard(e, 1, 5.0, func() func() { return nil })
	e.Run()
	if e.EngineStats().Launched != 0 {
		t.Fatalf("launched %d speculations past a 1.0 window", e.EngineStats().Launched)
	}
}

// TestStragglerRollback: shard 1 speculates at t=5.0; shard 0's commit then
// schedules shard-1 work at t=1.0 — a straggler. Where the conservative policy panics, the
// optimistic engine rolls shard 1 back (restoring its state), runs the
// straggler, and re-executes the 5.0 event, committing in sequential order.
func TestStragglerRollback(t *testing.T) {
	e, c := mkEngine(2, 2)
	c.state[1] = 10
	var order []string
	atShard(e, 0, 0.1, func() func() {
		return func() {
			order = append(order, "A")
			atShard(e, 1, 1.0, func() func() {
				c.state[1] += 5
				return func() { order = append(order, fmt.Sprintf("S=%d", c.state[1])) }
			})
		}
	})
	atShard(e, 1, 5.0, func() func() {
		c.state[1]++
		return func() { order = append(order, fmt.Sprintf("B=%d", c.state[1])) }
	})
	e.Run()
	// Sequentially: A commits, straggler runs (10+5=15), then B (16). The
	// speculative increment that ran first must have been undone.
	want := []string{"A", "S=15", "B=16"}
	if len(order) != len(want) {
		t.Fatalf("commit order %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("commit order %v, want %v", order, want)
		}
	}
	if c.rolledBack != 1 {
		t.Fatalf("rolled back %d speculations, want 1", c.rolledBack)
	}
	if e.EngineStats().RolledBack != 1 || e.EngineStats().Launched != 1 {
		t.Fatalf("stats %+v, want Launched=1 RolledBack=1", e.EngineStats())
	}
	c.balanced(t)
}

// TestSameTimestampIsNotAStraggler: a new event at exactly the speculated
// timestamp orders after it by sequence number — no rollback.
func TestSameTimestampIsNotAStraggler(t *testing.T) {
	e, c := mkEngine(2, 2)
	var order []string
	atShard(e, 0, 0.1, func() func() {
		return func() {
			order = append(order, "A")
			atShard(e, 1, 5.0, func() func() {
				return func() { order = append(order, "C") }
			})
		}
	})
	atShard(e, 1, 5.0, func() func() {
		return func() { order = append(order, "B") }
	})
	e.Run()
	want := []string{"A", "B", "C"}
	for i := range want {
		if i >= len(order) || order[i] != want[i] {
			t.Fatalf("commit order %v, want %v", order, want)
		}
	}
	if c.rolledBack != 0 {
		t.Fatalf("rolled back %d, want 0 — equal timestamps are not stragglers", c.rolledBack)
	}
}

// TestGlobalStragglerRollsBackLaterSpeculations: a global event scheduled
// below in-flight speculations rolls back every speculation past it, then
// runs solo — the zero-in-flight guarantee globals rely on.
func TestGlobalStragglerRollsBackLaterSpeculations(t *testing.T) {
	e, c := mkEngine(3, 3)
	var order []string
	atShard(e, 0, 0.1, func() func() {
		return func() {
			order = append(order, "A")
			e.At(1.0, func() { order = append(order, "g") })
		}
	})
	atShard(e, 1, 5.0, func() func() {
		c.state[1]++
		return func() { order = append(order, "B") }
	})
	atShard(e, 2, 6.0, func() func() {
		c.state[2]++
		return func() { order = append(order, "C") }
	})
	e.Run()
	want := []string{"A", "g", "B", "C"}
	for i := range want {
		if i >= len(order) || order[i] != want[i] {
			t.Fatalf("commit order %v, want %v", order, want)
		}
	}
	if c.rolledBack != 2 {
		t.Fatalf("rolled back %d speculations for the global straggler, want 2", c.rolledBack)
	}
	if c.state[1] != 1 || c.state[2] != 1 {
		t.Fatalf("shard state %v after run, want each incremented exactly once", c.state)
	}
	c.balanced(t)
}

// TestStopRollsBackInFlight: Stop returns with machine state exactly where
// the sequential engine would stop — in-flight speculations are undone,
// and resuming re-executes and commits them.
func TestStopRollsBackInFlight(t *testing.T) {
	e, c := mkEngine(2, 2)
	var committed []int
	atShard(e, 0, 0.1, func() func() {
		return func() {
			committed = append(committed, 0)
			e.Stop()
		}
	})
	atShard(e, 1, 5.0, func() func() {
		c.state[1]++
		return func() { committed = append(committed, 1) }
	})
	e.Run()
	if len(committed) != 1 || committed[0] != 0 {
		t.Fatalf("committed %v after Stop, want [0]", committed)
	}
	if c.state[1] != 0 {
		t.Fatalf("shard 1 state %d after Stop, want 0 — speculation must be undone", c.state[1])
	}
	e.Run() // resume: the event re-executes and commits
	if len(committed) != 2 || committed[1] != 1 {
		t.Fatalf("committed %v after resume, want [0 1]", committed)
	}
	if c.state[1] != 1 {
		t.Fatalf("shard 1 state %d after resume, want 1", c.state[1])
	}
	c.balanced(t)
}

// TestStragglerDiscardsSpeculativePanic: a speculation that panicked is
// rolled back by a straggler before its pop; the re-execution succeeds, so
// the panic never surfaces — exactly what the sequential engine, which
// would have run the straggler first, observes.
func TestStragglerDiscardsSpeculativePanic(t *testing.T) {
	e, c := mkEngine(2, 2)
	var attempts atomic.Int64
	var order []string
	atShard(e, 0, 0.1, func() func() {
		return func() {
			order = append(order, "A")
			atShard(e, 1, 1.0, func() func() {
				return func() { order = append(order, "S") }
			})
		}
	})
	atShard(e, 1, 5.0, func() func() {
		if attempts.Add(1) == 1 {
			panic("speculative execution saw pre-straggler state")
		}
		return func() { order = append(order, "B") }
	})
	e.Run()
	want := []string{"A", "S", "B"}
	for i := range want {
		if i >= len(order) || order[i] != want[i] {
			t.Fatalf("commit order %v, want %v", order, want)
		}
	}
	if got := attempts.Load(); got != 2 {
		t.Fatalf("phase ran %d times, want 2 (panicked speculation + clean re-run)", got)
	}
	if c.rolledBack != 1 {
		t.Fatalf("rolled back %d, want 1", c.rolledBack)
	}
}

// TestGlobalHorizonIsNow: the optimistic engine's safe horizon for global
// events is the commit frontier itself, matching the sequential engine —
// a global below an in-flight speculation is a straggler, not a violation.
func TestGlobalHorizonIsNow(t *testing.T) {
	e, _ := mkEngine(2, 2)
	var horizon des.Time = -1
	atShard(e, 0, 0.25, func() func() {
		return func() { horizon = des.EngineHorizon(e) }
	})
	atShard(e, 1, 5.0, func() func() { return nil })
	e.Run()
	if horizon != 0.25 {
		t.Fatalf("horizon %v with a speculation at 5.0 in flight, want Now()=0.25", horizon)
	}
	if e.GVT() != e.Now() {
		t.Fatalf("GVT %v != Now %v", e.GVT(), e.Now())
	}
}

// tortureWorkload drives an engine through a seeded self-expanding event
// web: every commit schedules near-future follow-ons on pseudorandom
// shards (straggler bait for whatever those shards have speculated) plus
// occasional far-future work (speculation depth) and global events
// (forced rollbacks of everything in flight). Phase bodies mutate
// per-shard state; commits log shard, timestamp, and state, so the log
// captures both order and the correctness of every rollback restore.
func tortureWorkload(e des.Engine, state []int64, shards int) []string {
	var log []string
	rng := uint64(0x9e3779b97f4a7c15)
	next := func(n uint64) uint64 {
		rng = rng*6364136223846793005 + 1442695040888963407
		return (rng >> 33) % n
	}
	budget := 2500
	var sched func(shard int, t des.Time)
	sched = func(shard int, t des.Time) {
		atShard(e, shard, t, func() func() {
			state[shard] = state[shard]*3 + int64(shard) + 1
			v := state[shard]
			return func() {
				log = append(log, fmt.Sprintf("%d@%.9f=%d", shard, t, v))
				if budget <= 0 {
					return
				}
				budget--
				// Near follow-on: lands close behind the frontier, below
				// most speculated timestamps on its target shard.
				sched(int(next(uint64(shards))), e.Now()+1e-6+des.Time(next(1000))*1e-5)
				if next(4) == 0 {
					// Far follow-on: keeps shards speculating deep.
					sched(int(next(uint64(shards))), e.Now()+2.0+des.Time(next(100))*1e-3)
				}
				if next(40) == 0 {
					at := e.Now() + 1e-6
					e.At(at, func() {
						log = append(log, fmt.Sprintf("g@%.9f", at))
					})
				}
			}
		})
	}
	for s := 0; s < shards; s++ {
		// Spread the seeds a full virtual second apart so every shard
		// starts far outside any conservative lookahead window.
		sched(s, 0.1+des.Time(s))
	}
	e.Run()
	return log
}

// TestTortureCascadesMatchSequential is the rollback-cascade torture test:
// thousands of events whose commits continually schedule into the past of
// deep speculations, on several worker counts, must produce a commit log —
// order, timestamps, and rolled-back-and-restored shard state — byte-equal
// to the sequential engine's.
func TestTortureCascadesMatchSequential(t *testing.T) {
	const shards = 8
	seqState := make([]int64, shards)
	want := tortureWorkload(des.NewEngine(), seqState, shards)
	if len(want) < 2000 {
		t.Fatalf("torture workload produced only %d events; the web failed to expand", len(want))
	}

	for _, workers := range []int{1, 2, 8} {
		e, c := mkEngine(shards, workers)
		got := tortureWorkload(e, c.state, shards)
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d committed events, want %d", workers, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: commit %d = %q, want %q", workers, i, got[i], want[i])
			}
		}
		for s := range seqState {
			if c.state[s] != seqState[s] {
				t.Fatalf("workers=%d: shard %d final state %d, want %d", workers, s, c.state[s], seqState[s])
			}
		}
		c.balanced(t)
		if workers == 8 && e.EngineStats().RolledBack == 0 {
			t.Fatal("torture run never rolled back — the cascade pressure is gone")
		}
	}
}

// TestSpeculationStatsDeterministic: launch and rollback decisions depend
// only on heap state at each step, never on worker timing, so the full
// speculation ledger is identical run-to-run.
func TestSpeculationStatsDeterministic(t *testing.T) {
	run := func() (optsim.Stats, []string) {
		e, c := mkEngine(8, 4)
		log := tortureWorkload(e, c.state, 8)
		return e.EngineStats(), log
	}
	s1, l1 := run()
	s2, l2 := run()
	if s1 != s2 {
		t.Fatalf("speculation stats diverged between identical runs:\n%+v\n%+v", s1, s2)
	}
	if len(l1) != len(l2) {
		t.Fatalf("log lengths diverged: %d vs %d", len(l1), len(l2))
	}
	if s1.Launched == 0 || s1.RolledBack == 0 {
		t.Fatalf("stats %+v: expected both speculation and rollback activity", s1)
	}
	if s1.WastedFraction() <= 0 || s1.WastedFraction() >= 1 {
		t.Fatalf("wasted fraction %v out of (0,1)", s1.WastedFraction())
	}
}
