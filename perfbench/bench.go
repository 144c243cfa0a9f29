package main

import (
	"fmt"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"

	"charmgo/internal/charm"
	"charmgo/internal/machine"
)

// backend is one of the three engines.
type backend struct {
	Key    string // metric suffix
	Engine string // machine.Config.Backend
}

var backends = []backend{
	{"seq", "sequential"},
	{"cons", "parallel"},
	{"opt", "optimistic"},
}

// options are one invocation's settings.
type options struct {
	Workload *workload
	Seed     int64
	// Instances is how many input instances the seed expands to; round r
	// runs instance r mod Instances. Timed runs cycle through several, so
	// one run's medians do not hang on a single input draw.
	Instances int
	Tiny      bool
	Workers   int
	OutDir    string
}

// instanceSeed is the app seed of round r's input instance.
func (o options) instanceSeed(r int) int64 {
	n := o.Instances
	if n < 1 {
		n = 1
	}
	return o.Seed*int64(n) + int64(r%n)
}

// pass is one backend run of the workload: set up, run, digest.
type pass struct {
	Backend string
	Seed    int64 // the input instance's app seed
	SetupS  float64
	WallS   float64
	HeapMB  float64 // live heap after a GC with the runtime reachable (untraced only)
	// Engine events and runtime.MemStats deltas over Run.
	Events, Mallocs, AllocBytes, GCCycles float64
	Digest                                string
	Err                                   error
	Led                                   *ledger // traced passes only
}

// clock is the driver's one wall-clock source. Wall time is reported, and
// never reaches simulation state: the runtime only ever sees virtual time.
type clock struct{ base time.Time }

func newClock() *clock {
	//charmvet:wallclock (benchmark timing epoch; never enters simulation state)
	return &clock{base: time.Now()}
}

// now returns nanoseconds since the clock's epoch.
func (c *clock) now() int64 {
	//charmvet:wallclock (benchmark timing; never enters simulation state)
	return int64(time.Since(c.base))
}

// runPass runs the workload once on b. A traced pass attaches the ledger's
// instruments after set-up and profiles the run.
func runPass(o options, seed int64, b backend, clk *clock, traced bool, spans *spanLog) (p pass) {
	p.Backend, p.Seed = b.Key, seed
	var led *ledger
	defer func() {
		if r := recover(); r != nil {
			pprof.StopCPUProfile()
			p.Err = fmt.Errorf("panic: %v", r)
		}
	}()
	runtime.GC()

	root := -1
	if traced {
		root = spans.begin("pass", b.Key, -1)
		defer spans.end(root)
	}
	setupSpan := spans.begin("setup", b.Key, root)
	t0 := clk.now()
	pes := o.Workload.PEs
	if o.Tiny {
		pes = o.Workload.TinyPEs
	}
	mc := machine.Testbed(pes)
	mc.Backend = b.Engine
	if b.Engine != "sequential" {
		mc.ParallelWorkers = o.Workers
	}
	rt := charm.New(machine.New(mc))
	a, err := o.Workload.New(rt, seed, o.Tiny)
	p.SetupS = float64(clk.now()-t0) / 1e9
	spans.end(setupSpan)
	if err != nil {
		p.Err = err
		return p
	}

	if traced {
		led = attachLedger(rt, o, b.Key, clk, spans)
		p.Led = led
		led.beforeRun()
	}
	var pre, post runtime.MemStats
	runtime.ReadMemStats(&pre)
	runSpan := spans.begin("run", b.Key, root)
	if led != nil {
		led.runSpan = runSpan
	}
	t1 := clk.now()
	p.Digest, p.Err = a.Run(rt)
	p.WallS = float64(clk.now()-t1) / 1e9
	spans.end(runSpan)
	runtime.ReadMemStats(&post)
	p.Events = float64(rt.Engine().Executed())
	p.Mallocs = float64(post.Mallocs - pre.Mallocs)
	p.AllocBytes = float64(post.TotalAlloc - pre.TotalAlloc)
	p.GCCycles = float64(post.NumGC - pre.NumGC)
	if led != nil {
		led.afterRun(b.Key == "seq" && p.Err == nil, root)
		return p
	}

	// Two collections: the first moves sync.Pool contents to the victim
	// cache, the second frees them, so pooled garbage is not counted live.
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	p.HeapMB = float64(ms.HeapAlloc) / (1 << 20)
	runtime.KeepAlive(rt)
	runtime.KeepAlive(a)
	return p
}

// rotated returns the backends in round r's order: each round starts on a
// different engine, so no engine always runs first or last.
func rotated(r int) []backend {
	out := make([]backend, len(backends))
	for i := range backends {
		out[i] = backends[(r+i)%len(backends)]
	}
	return out
}

// checker compares every pass's digest with the process's sequential
// digest of the same input instance, and counts attempts and failures.
type checker struct {
	ref       map[int64]string // instance seed -> first sequential digest
	pending   []pass           // passes run before their reference existed
	attempted int
	failed    int
	messages  []string
}

func (c *checker) add(p pass) {
	c.attempted++
	if p.Err != nil {
		c.fail(fmt.Sprintf("%s (instance seed %d): %v", p.Backend, p.Seed, p.Err))
		return
	}
	if c.ref == nil {
		c.ref = map[int64]string{}
	}
	if _, ok := c.ref[p.Seed]; !ok {
		if p.Backend != "seq" {
			c.pending = append(c.pending, p)
			return
		}
		c.ref[p.Seed] = p.Digest
		var rest []pass
		for _, q := range c.pending {
			if q.Seed == p.Seed {
				c.compare(q)
			} else {
				rest = append(rest, q)
			}
		}
		c.pending = rest
	}
	c.compare(p)
}

func (c *checker) compare(p pass) {
	if ref := c.ref[p.Seed]; p.Digest != ref {
		c.fail(fmt.Sprintf("%s digest differs from sequential (instance seed %d)\n  sequential: %s\n  %-10s: %s",
			p.Backend, p.Seed, ref, p.Backend, p.Digest))
	}
}

func (c *checker) fail(msg string) {
	c.failed++
	c.messages = append(c.messages, msg)
}

// finish fails any pass still waiting for a sequential reference.
func (c *checker) finish() {
	for _, q := range c.pending {
		c.fail(fmt.Sprintf("%s: no sequential digest to compare with", q.Backend))
	}
	c.pending = nil
}

// timedRounds runs interleaved rounds of all three backends until budget
// nanoseconds have passed on clk (at least minRounds rounds), and returns
// the passes grouped by backend key.
func timedRounds(o options, clk *clock, budget int64, minRounds int, traced bool, chk *checker, spans *spanLog) map[string][]pass {
	out := map[string][]pass{}
	start := clk.now()
	for r := 0; r < minRounds || clk.now()-start < budget; r++ {
		// Shift the engine order once per instance cycle, so every
		// instance also sees every order.
		for _, b := range rotated(r + r/max(o.Instances, 1)) {
			p := runPass(o, o.instanceSeed(r), b, clk, traced, spans)
			chk.add(p)
			out[b.Key] = append(out[b.Key], p)
		}
	}
	return out
}

// quartiles returns the first quartile, median and third quartile of xs.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	return median(s[:(n+1)/2]), median(s), median(s[n/2:])
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// field collects one value from each pass.
func field(ps []pass, f func(pass) float64) []float64 {
	out := make([]float64, 0, len(ps))
	for _, p := range ps {
		if p.Err == nil {
			out = append(out, f(p))
		}
	}
	return out
}

// endToEndMetrics computes the --trace 0 metrics from untraced passes.
func endToEndMetrics(byB map[string][]pass) map[string]float64 {
	m := map[string]float64{}
	var setups []float64
	for _, b := range backends {
		ps := byB[b.Key]
		m["wall_s."+b.Key] = median(field(ps, func(p pass) float64 { return p.WallS }))
		setups = append(setups, field(ps, func(p pass) float64 { return p.SetupS })...)
	}
	m["setup_s"] = median(setups)
	// A pass's live heap is fixed by its input instance (to within a few
	// KiB), but on the optimistic engine it moves in steps between
	// instances with the delivery-log records retained at the end. The mean
	// weighs the run's instances; a median would jump between steps from
	// one seed to the next.
	m["live_heap_mb.seq"] = mean(field(byB["seq"], func(p pass) float64 { return p.HeapMB }))
	m["live_heap_mb.opt"] = mean(field(byB["opt"], func(p pass) float64 { return p.HeapMB }))
	return m
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return ratio(s, float64(len(xs)))
}

// spanLog keeps the traced passes' spans in memory; they are written out
// when the benchmark ends.
type spanLog struct {
	clk   *clock
	spans []span
}

type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // -1 for a root
	Name    string `json:"name"`
	Backend string `json:"backend"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// begin opens a span and returns its id; a nil log records nothing.
func (l *spanLog) begin(name, backend string, parent int) int {
	if l == nil {
		return -1
	}
	l.spans = append(l.spans, span{ID: len(l.spans), Parent: parent, Name: name, Backend: backend, StartNs: l.clk.now()})
	return len(l.spans) - 1
}

func (l *spanLog) end(id int) {
	if l == nil || id < 0 {
		return
	}
	l.spans[id].EndNs = l.clk.now()
}
