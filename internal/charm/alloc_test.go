package charm

import (
	"runtime"
	"testing"

	"charmgo/internal/pup"
)

// pingPair bounces a nil-payload message between two elements, keeping the
// application out of the measurement so the numbers isolate the runtime's
// send→schedule→execute→commit path.
type pingPair struct {
	Peer, Left int
}

func (o *pingPair) Pup(p *pup.Pup) {
	p.Int(&o.Peer)
	p.Int(&o.Left)
}

const epPingPair EP = 0

// TestSteadyStateAllocsPerEvent pins the end-to-end delivery path at well
// under one heap allocation per engine event, on every backend that
// claims it. The budget guards the pooling that makes paper-scale runs fit
// in memory: pooled messages, the per-PE recycled Ctx and its effect
// buffer (sends are data records, not closures), the preallocated commit
// closures, and the engines' slab-allocated event store. The path
// measures under 0.002 on sequential, parallel and optimistic; 0.05
// catches any reintroduced per-delivery or per-send allocation. The heap
// engine boxes every event into its container/heap and is logged only.
// Under the race detector sync.Pool drops a share of recycled messages by
// design (about 0.13 allocs/event here), so the bound there is 0.5.
func TestSteadyStateAllocsPerEvent(t *testing.T) {
	for _, tc := range []struct {
		backend string
		pinned  bool
	}{
		{"sequential", true},
		{"parallel", true},
		{"optimistic", true},
		{"heap", false},
	} {
		t.Run(tc.backend, func(t *testing.T) {
			perEvent, ev := pingPairAllocs(t, tc.backend)
			t.Logf("%s: steady-state allocs/event = %.4f over %d events", tc.backend, perEvent, ev)
			bound := 0.05
			if raceEnabled {
				bound = 0.5
			}
			if tc.pinned && perEvent > bound {
				t.Fatalf("%s: steady-state allocs/event = %.4f, want <= %v (message/Ctx/effect-buffer/commit pooling regressed)", tc.backend, perEvent, bound)
			}
		})
	}
}

// pingPairAllocs runs the ping pair on backend and returns the heap
// allocations per executed engine event, and the event count.
func pingPairAllocs(t *testing.T, backend string) (float64, uint64) {
	const rounds = 50000
	rt := backendRT(2, backend)
	var arr *Array
	handlers := []Handler{
		epPingPair: func(obj Chare, ctx *Ctx, msg any) {
			o := obj.(*pingPair)
			o.Left--
			if o.Left <= 0 {
				ctx.Exit()
				return
			}
			ctx.Send(arr, Idx1(o.Peer), epPingPair, nil)
		},
	}
	arr = rt.DeclareArray("ping", func() Chare { return &pingPair{} }, handlers, ArrayOpts{})
	arr.InsertOn(Idx1(0), &pingPair{Peer: 1, Left: rounds}, 0)
	arr.InsertOn(Idx1(1), &pingPair{Peer: 0, Left: rounds}, 1)
	rt.Boot(func(ctx *Ctx) { ctx.Send(arr, Idx1(0), epPingPair, nil) })

	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rt.Run()
	runtime.ReadMemStats(&after)

	ev := rt.Engine().Executed()
	if ev == 0 {
		t.Fatal("no events executed")
	}
	return float64(after.Mallocs-before.Mallocs) / float64(ev), ev
}

// TestResolveAllocFree pins the location-manager lookup (the per-send hot
// path) at zero allocations once the element tables are built.
func TestResolveAllocFree(t *testing.T) {
	rt := testRT(8)
	arr := declCounters(rt, ArrayOpts{})
	for i := 0; i < 256; i++ {
		arr.Insert(Idx1(i), &counter{})
	}
	keys := make([]elemKey, 256)
	for i := range keys {
		keys[i] = elemKey{array: arr.id, idx: Idx1(i)}
	}
	i := 0
	if n := testing.AllocsPerRun(2000, func() {
		_ = rt.resolve(0, keys[i%len(keys)])
		i++
	}); n > 0 {
		t.Fatalf("resolve allocates %.2f per lookup, want 0", n)
	}
}

// TestSnapshotSkipFastPathAllocs pins the infrequent-state-saving fast
// path at zero allocations: when a speculated execution touches an element
// that still holds a retained image, touchElem must only bump the
// avoided counter and record the element in the shard's touched set —
// no packing, no image buffer, no metadata copies. This is the path taken
// K-1 times out of every K speculated executions, so a single allocation
// here would erase most of what sparse imaging saves.
func TestSnapshotSkipFastPathAllocs(t *testing.T) {
	sc := &specController{}
	sp := &shardSpec{}
	els := []*element{
		{save: &elemSave{}},
		{save: &elemSave{}},
		{save: &elemSave{}},
	}
	// Warm once so sp.touched reaches its working capacity.
	for _, el := range els {
		sp.touchElem(sc, el)
	}
	if n := testing.AllocsPerRun(1000, func() {
		sp.touched = sp.touched[:0]
		for _, el := range els {
			sp.touchElem(sc, el)
			sp.touchElem(sc, el) // dedup re-touch, the commonest case of all
		}
	}); n > 0 {
		t.Fatalf("snapshot-skipped touch allocates %.2f per phase, want 0", n)
	}
}

// TestMsgQueueAllocSteadyState pins the PE scheduler queue: once the heap
// slice has grown to its working size, push/pop cycles must not allocate
// (messages themselves come from the pool).
func TestMsgQueueAllocSteadyState(t *testing.T) {
	var q msgQueue
	msgs := make([]*message, 64)
	for i := range msgs {
		msgs[i] = &message{prio: int64(i % 7), seq: uint64(i)}
	}
	for _, m := range msgs {
		q.push(m)
	}
	for len(q) > 0 {
		q.pop()
	}
	if n := testing.AllocsPerRun(1000, func() {
		for _, m := range msgs {
			q.push(m)
		}
		for len(q) > 0 {
			q.pop()
		}
	}); n > 0 {
		t.Fatalf("msgQueue push/pop allocates %.2f per cycle at steady state, want 0", n)
	}
}
