package optsim_test

import (
	"fmt"
	"math"
	"testing"

	"charmgo/internal/des"
	"charmgo/internal/optsim"
	"charmgo/internal/parsim"
)

// The engine conformance harness. FuzzEngineOrder decodes its input into
// an event program — seed events plus a per-event reaction (follow-on
// events, Stop) derived from a hash of the input and the event's id — and
// runs it on every engine. des.Heap is the reference; des.Sequential, the
// conservative engine and the optimistic engine must match its commit log
// (order, timestamps, the shard state each phase saw, and the Pending
// count after every commit) and its Executed count. Every program runs
// twice: once within the conservative engine's lookahead contract (all
// four engines), and once with cross-shard and global follow-ons that
// undercut the lookahead, which forces stragglers into the optimistic
// engine's speculated past (every engine but the conservative one, for
// which such a program is a contract violation).
//
// The seed corpus runs as an ordinary test; explore beyond it with
//
//	go test -run '^$' -fuzz FuzzEngineOrder -fuzztime 30s ./internal/optsim/

// tick is the timestamp quantum: a power of two, so timestamp sums are
// exact and ties are common.
const tick des.Time = 1.0 / 16

// Event kinds.
const (
	kindPhase  = iota // two-phase sharded event (AtShardFn)
	kindCommit        // commit-only sharded event (AtShardCommit)
	kindGlobal        // global event (At)
)

// kindOf maps a random byte to an event kind, weighted toward phases.
func kindOf(x int) int {
	switch {
	case x%8 < 5:
		return kindPhase
	case x%8 < 7:
		return kindCommit
	}
	return kindGlobal
}

type seedEvent struct {
	kind, shard int
	at          des.Time
}

// program is one decoded fuzz input.
type program struct {
	shards   int
	alpha    des.Time   // conservative lookahead
	window   des.Time   // optimistic window, 0 = unbounded
	budget   int        // follow-on events the whole run may schedule
	seed     uint64     // drives every event's reaction
	horizons []des.Time // RunUntil calls before the final Run loop
	initial  []seedEvent
}

func decode(data []byte) program {
	at := func(i int) int {
		if i < len(data) {
			return int(data[i])
		}
		return 0
	}
	p := program{
		shards: 2 + at(0)%4,
		alpha:  tick * des.Time(1+at(1)%4),
		budget: 16 + at(2)%128,
		seed:   0xcbf29ce484222325,
	}
	switch at(3) % 3 {
	case 1:
		p.window = p.alpha
	case 2:
		p.window = 8 * p.alpha
	}
	var t des.Time
	for i := 0; i < at(4)%3; i++ {
		t += tick * des.Time(1+at(5+i)%32)
		p.horizons = append(p.horizons, t)
	}
	for _, b := range data {
		p.seed = (p.seed ^ uint64(b)) * 0x100000001b3
	}
	for i := 8; i+1 < len(data) && len(p.initial) < 32; i += 2 {
		p.initial = append(p.initial, seedEvent{
			kind:  kindOf(int(data[i])),
			shard: int(data[i]>>3) % p.shards,
			at:    tick * des.Time(data[i+1]%64),
		})
	}
	if len(p.initial) == 0 {
		p.initial = append(p.initial, seedEvent{kind: kindPhase})
	}
	return p
}

// rng is a splitmix64 stream; each event reacts from its own stream, so a
// reaction depends only on the input and the event's id.
type rng uint64

func (r *rng) next(n int) int {
	*r += 0x9e3779b97f4a7c15
	z := uint64(*r)
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return int((z ^ z>>31) % uint64(n))
}

// runner executes one program on one engine and logs every commit.
type runner struct {
	p        *program
	e        des.Engine
	straggle bool    // follow-ons may undercut the lookahead
	state    []int64 // per-shard state, touched only by that shard's events and by globals
	log      []string
	budget   int
	ids      int64 // events scheduled so far; the next event's id
	phaseFn  des.PhaseFn
	commitFn des.CommitFn
}

func newRunner(p *program, e des.Engine, straggle bool) *runner {
	r := &runner{p: p, e: e, straggle: straggle, state: make([]int64, p.shards), budget: p.budget}
	r.phaseFn = r.phase
	r.commitFn = r.commitOnly
	return r
}

func (r *runner) schedule(kind, shard int, at des.Time) {
	id := r.ids
	r.ids++
	b := id<<8 | int64(shard)
	switch kind {
	case kindPhase:
		r.e.AtShardFn(shard, at, r.phaseFn, nil, b)
	case kindCommit:
		r.e.AtShardCommit(shard, at, r.commitFn, nil, b)
	default:
		r.e.At(at, func() { r.global(id) })
	}
}

// phase may run on a worker: it touches only its shard's state.
func (r *runner) phase(_ any, b int64, _ des.Time) func() {
	id, s := b>>8, int(b&0xff)
	r.state[s] = r.state[s]*31 + id + 1
	v := r.state[s]
	return func() {
		r.log = append(r.log, fmt.Sprintf("%d phase s%d @%v saw %d", id, s, r.e.Now(), v))
		r.react(id, s)
	}
}

func (r *runner) commitOnly(_ any, b int64, at des.Time) {
	id, s := b>>8, int(b&0xff)
	r.state[s] = r.state[s]*37 + id + 1
	r.log = append(r.log, fmt.Sprintf("%d commit s%d @%v saw %d", id, s, at, r.state[s]))
	r.react(id, s)
}

// global runs with nothing in flight, so it may read every shard's state.
func (r *runner) global(id int64) {
	r.log = append(r.log, fmt.Sprintf("%d global @%v saw %v", id, r.e.Now(), r.state))
	r.react(id, -1)
}

// react is an event's commit-time behaviour: maybe Stop, schedule up to two
// follow-ons, then log the engine's Pending count, so the store's
// accounting is compared with des.Heap's at every commit. s is the
// reacting event's shard, -1 for a global.
func (r *runner) react(id int64, s int) {
	g := rng(r.p.seed ^ uint64(id)*0x9e3779b97f4a7c15)
	now := r.e.Now()
	if g.next(16) == 0 {
		r.log = append(r.log, fmt.Sprintf("%d stops", id))
		r.e.Stop()
	}
	for n := g.next(3); n > 0 && r.budget > 0; n-- {
		r.budget--
		kind, shard := kindOf(g.next(8)), g.next(r.p.shards)
		if s >= 0 && g.next(2) == 0 {
			shard = s
		}
		var d des.Time
		switch {
		case g.next(4) == 0:
			d = 2 + tick*des.Time(g.next(16)) // far ahead: deep speculation
		case s < 0 || kind != kindGlobal && shard == s:
			d = tick * des.Time(g.next(6)) // same shard, or from a global: any delay
		case r.straggle:
			d = tick * des.Time(g.next(6)) // may land in a speculated past
		default:
			d = r.p.alpha + tick*des.Time(g.next(4)) // at least the lookahead
		}
		r.schedule(kind, shard, now+d)
	}
	r.log = append(r.log, fmt.Sprintf("%d pending %d", id, r.e.Pending()))
}

// run schedules the seed events, runs to each horizon, then runs until the
// queue drains, resuming after every Stop.
func (r *runner) run() []string {
	for _, ev := range r.p.initial {
		r.schedule(ev.kind, ev.shard, ev.at)
	}
	mark := func(how string) {
		r.log = append(r.log, fmt.Sprintf("%s returned: now %v pending %d executed %d",
			how, r.e.Now(), r.e.Pending(), r.e.Executed()))
	}
	for _, t := range r.p.horizons {
		r.e.RunUntil(t)
		mark(fmt.Sprintf("RunUntil(%v)", t))
	}
	for {
		r.e.Run()
		mark("Run")
		if r.e.Pending() == 0 {
			return r.log
		}
	}
}

func FuzzEngineOrder(f *testing.F) {
	for _, seed := range [][]byte{
		{},
		{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 8, 0, 16, 0},                     // ties at t=0 on three shards
		{1, 1, 40, 1, 2, 3, 5, 0, 0, 4, 9, 4, 17, 5, 30, 4, 6, 8},       // RunUntil, commit-only and global seeds
		{3, 3, 127, 0, 1, 20, 0, 0, 1, 63, 10, 1, 19, 62, 28, 0},        // five shards, wide lookahead, far seeds
		{2, 0, 90, 2, 2, 1, 1, 0, 5, 2, 14, 2, 23, 2, 31, 2, 6, 1},      // narrow lookahead, wide window
		{1, 2, 60, 1, 1, 7, 0, 0, 0, 10, 8, 10, 16, 10, 24, 10, 7, 10},  // tied seeds, one global among them
		{0, 3, 100, 0, 0, 0, 0, 0, 4, 3, 12, 3, 5, 3, 13, 3},            // commit-only heavy
		{2, 1, 127, 2, 2, 31, 31, 0, 0, 0, 9, 40, 18, 2, 27, 44, 36, 9}, // two late horizons
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p := decode(data)
		for _, straggle := range []bool{false, true} {
			ref := newRunner(&p, des.NewHeapEngine(), straggle)
			want := ref.run()
			check := func(name string, r *runner) {
				t.Helper()
				got := r.run()
				for i := range want {
					if i >= len(got) || got[i] != want[i] {
						g := "<end of log>"
						if i < len(got) {
							g = got[i]
						}
						t.Fatalf("straggle=%v: %s diverges from des.Heap at line %d:\n got %s\nwant %s", straggle, name, i, g, want[i])
					}
				}
				if len(got) != len(want) {
					t.Fatalf("straggle=%v: %s logged %d lines, des.Heap %d", straggle, name, len(got), len(want))
				}
				if r.e.Executed() != ref.e.Executed() {
					t.Fatalf("straggle=%v: %s executed %d, des.Heap %d", straggle, name, r.e.Executed(), ref.e.Executed())
				}
			}
			check("des.Sequential", newRunner(&p, des.NewEngine(), straggle))
			if !straggle {
				check("conservative", newRunner(&p, parsim.New(parsim.Options{
					Lookahead: p.alpha, Shards: p.shards, Workers: 2,
				}), straggle))
			}
			opt := optsim.New(optsim.Options{Shards: p.shards, Workers: 2, Window: p.window})
			r := newRunner(&p, opt, straggle)
			c := newStateCtrl(r.state)
			opt.SetController(c)
			check("optimistic", r)
			c.balanced(t)
		}
	})
}

// TestScheduleRejectsPastAndNaN: every engine refuses a timestamp before
// Now() and a NaN one, from each scheduling entry point, and accepts Now()
// itself and Forever. NaN matters because a NaN that became the clock
// would make every later "before now" comparison false, switching the
// causality check off for the rest of the run.
func TestScheduleRejectsPastAndNaN(t *testing.T) {
	nan := des.Time(math.NaN())
	for _, tc := range []struct {
		name string
		e    des.Engine
	}{
		{"des.Heap", des.NewHeapEngine()},
		{"des.Sequential", des.NewEngine()},
		{"conservative", parsim.New(parsim.Options{Lookahead: 1, Shards: 2, Workers: 2})},
		{"optimistic", optsim.New(optsim.Options{Shards: 2, Workers: 2})},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := tc.e
			noop := func() {}
			phase := func(any, int64, des.Time) func() { return nil }
			commit := func(any, int64, des.Time) {}
			entries := []struct {
				name string
				at   func(des.Time)
			}{
				{"At", func(x des.Time) { e.At(x, noop) }},
				{"AtShardFn", func(x des.Time) { e.AtShardFn(1, x, phase, nil, 0) }},
				{"AtShardCommit", func(x des.Time) { e.AtShardCommit(1, x, commit, nil, 0) }},
				{"After", func(x des.Time) { e.After(x-e.Now(), noop) }},
			}
			panics := func(f func()) (p bool) {
				defer func() { p = recover() != nil }()
				f()
				return false
			}
			e.At(1, func() {
				for _, en := range entries {
					for _, x := range []des.Time{nan, 0.5, 0} {
						if !panics(func() { en.at(x) }) {
							t.Errorf("%s at %v with now %v did not panic", en.name, x, e.Now())
						}
					}
					for _, x := range []des.Time{1, des.Forever} {
						if panics(func() { en.at(x) }) {
							t.Errorf("%s at %v with now %v panicked", en.name, x, e.Now())
						}
					}
				}
			})
			e.Run()
			if e.Now() != des.Forever || e.Executed() != 1+2*uint64(len(entries)) {
				t.Fatalf("after run: now %v, executed %d; want %v, %d",
					e.Now(), e.Executed(), des.Forever, 1+2*len(entries))
			}
		})
	}
}
