package main

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"charmgo/internal/charm"
	"charmgo/internal/des"
	"charmgo/internal/optsim"
	"charmgo/internal/parsim"
	"charmgo/internal/projections/metrics"
	"charmgo/internal/pup"
	"charmgo/internal/telemetry"
)

// ledger instruments one traced pass through the layers' public hooks:
// telemetry's probe timers, a charm.TraceHooks recorder, a timing wrapper
// around the LB strategy, a CPU profile and a memory-profile diff. None of
// it feeds back into the simulation, so the traced digest must equal the
// untraced one.
type ledger struct {
	rt      *charm.Runtime
	clk     *clock
	spans   *spanLog
	tel     *telemetry.Telemetry
	rec     *recorder
	backend string
	runSpan int

	cpu    bytes.Buffer
	memPre map[[32]uintptr]int64

	// Results.
	Exact      map[string]float64 // counters that must repeat bit for bit
	Timed      map[string]float64
	CPU        map[string]int64 // layer -> profile samples
	Alloc      map[string]int64 // layer -> sampled allocated bytes
	BalanceNs  int64
	Entries    map[entryKey]uint64
	PackNsKB   float64
	UnpackNsKB float64
	Err        error
}

func attachLedger(rt *charm.Runtime, o options, backend string, clk *clock, spans *spanLog) *ledger {
	l := &ledger{rt: rt, clk: clk, spans: spans, backend: backend, runSpan: -1}
	l.tel = telemetry.Attach(rt, telemetry.Options{
		// Publications feed the HTTP server, which the ledger does not run.
		PublishInterval: time.Hour,
		FlightDir:       o.OutDir,
	})
	l.rec = &recorder{entries: map[entryKey]uint64{}}
	rt.SetTraceHooks(l.rec)
	if s := rt.Balancer(); s != nil {
		rt.SetBalancer(timeStrategy(s, l))
	}
	return l
}

// beforeRun settles the heap and starts the profiles.
func (l *ledger) beforeRun() {
	runtime.GC()
	l.memPre = memProfile()
	if err := pprof.StartCPUProfile(&l.cpu); err != nil {
		l.Err = err
	}
}

// afterRun stops the profiles and reads every layer's counters. On the
// sequential pass it also times PUP over every element's final state.
func (l *ledger) afterRun(timePup bool, parent int) {
	pprof.StopCPUProfile()
	runtime.GC()
	memPost := memProfile()

	rt := l.rt
	events := float64(rt.Engine().Executed())

	l.CPU = map[string]int64{}
	if samples, err := parseProfile(l.cpu.Bytes()); err != nil {
		l.Err = fmt.Errorf("cpu profile: %v", err)
	} else {
		for _, s := range samples {
			l.CPU[stackLayer(s.Stack)] += s.Count
		}
	}
	l.Alloc = allocByLayer(l.memPre, memPost)

	st := rt.Stats
	l.Exact = map[string]float64{
		"des.events":               events,
		"delivery.msgs_sent":       float64(st.MsgsSent),
		"delivery.bytes_sent":      float64(st.BytesSent),
		"delivery.msgs_delivered":  float64(st.MsgsDelivered),
		"delivery.msgs_forwarded":  float64(st.MsgsForwarded),
		"collectives.fanout_execs": float64(l.rec.fanout),
		"lb.rounds":                float64(rt.LBRounds()),
		"lb.migrations":            float64(st.Migrations),
	}
	l.Timed = map[string]float64{}
	reg := l.tel.Registry().Export()
	switch eng := rt.Engine().(type) {
	case *parsim.Engine:
		es := eng.EngineStats()
		l.Exact["parsim.launched"] = float64(es.Launched)
		l.Exact["parsim.inline"] = float64(es.Inline)
		l.Exact["parsim.global"] = float64(es.Global)
		l.Exact["parsim.parallel_frac"] = ratio(float64(es.Launched), float64(es.Launched+es.Inline+es.Global))
		l.Timed["parsim.phase_ns.p50"] = histQuantile(reg, "wall.phase_latency_ns", 0.50)
		l.Timed["parsim.phase_ns.p99"] = histQuantile(reg, "wall.phase_latency_ns", 0.99)
		l.Timed["parsim.stall_s"] = timerSum(reg, "wall.driver_stall_ns") / 1e9
		l.Timed["parsim.window_stalls"] = gaugeValue(reg, "wall.window_stalls")
	case *optsim.Engine:
		es := eng.EngineStats()
		l.Exact["optsim.launched"] = float64(es.Launched)
		l.Exact["optsim.committed"] = float64(es.Committed)
		l.Exact["optsim.rolled_back"] = float64(es.RolledBack)
		l.Exact["optsim.commit_frac"] = ratio(float64(es.Committed), float64(es.Launched))
		sv := rt.SpecSaveStats()
		l.Exact["spec.snapshots"] = float64(sv.Snapshots)
		l.Exact["spec.snapshot_bytes"] = float64(sv.SnapshotBytes)
		l.Exact["spec.snapshots_avoided"] = float64(sv.SnapshotsAvoided)
		l.Exact["spec.restores"] = float64(sv.Restores)
		l.Exact["spec.replays"] = float64(sv.Replays)
		l.Timed["optsim.phase_ns.p50"] = histQuantile(reg, "wall.phase_latency_ns", 0.50)
		l.Timed["optsim.phase_ns.p99"] = histQuantile(reg, "wall.phase_latency_ns", 0.99)
		l.Timed["optsim.stall_s"] = timerSum(reg, "wall.driver_stall_ns") / 1e9
		l.Timed["optsim.rollback_wait_s"] = timerSum(reg, "wall.rollback_wait_ns") / 1e9
		l.Timed["optsim.gvt_lag_vns.p99"] = histQuantile(reg, "wall.gvt_lag_vns", 0.99)
	}
	l.Entries = l.rec.entries
	if timePup {
		l.timePup(parent)
	}
}

// timePup sizes, packs and unpacks every element's final state.
func (l *ledger) timePup(parent int) {
	type elem struct {
		arr *charm.Array
		obj charm.Chare
	}
	var elems []elem
	total := 0
	for _, a := range l.rt.Arrays() {
		for _, idx := range a.Keys() {
			obj := a.Get(idx)
			elems = append(elems, elem{a, obj})
			total += pup.Size(obj)
		}
	}
	l.Exact["pup.state_bytes"] = float64(total)
	if total == 0 {
		return
	}
	kb := float64(total) / 1024
	bufs := make([][]byte, len(elems))
	sp := l.spans.begin("pup.pack", "seq", parent)
	t0 := l.clk.now()
	for i, e := range elems {
		bufs[i] = pup.Pack(e.obj)
	}
	l.PackNsKB = float64(l.clk.now()-t0) / kb
	l.spans.end(sp)
	sp = l.spans.begin("pup.unpack", "seq", parent)
	t0 = l.clk.now()
	for i, e := range elems {
		if err := pup.Unpack(bufs[i], e.arr.NewElement()); err != nil && l.Err == nil {
			l.Err = fmt.Errorf("pup round trip of %s: %v", e.arr.Name(), err)
		}
	}
	l.UnpackNsKB = float64(l.clk.now()-t0) / kb
	l.spans.end(sp)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func findMetric(reg []metrics.Metric, name string) *metrics.Metric {
	for i := range reg {
		if reg[i].Name == name {
			return &reg[i]
		}
	}
	return nil
}

func gaugeValue(reg []metrics.Metric, name string) float64 {
	if m := findMetric(reg, name); m != nil {
		return m.Value
	}
	return 0
}

func timerSum(reg []metrics.Metric, name string) float64 {
	if m := findMetric(reg, name); m != nil {
		return m.Sum
	}
	return 0
}

// histQuantile reads quantile q of a log2-bucket histogram, interpolating
// linearly inside the bucket that holds it.
func histQuantile(reg []metrics.Metric, name string, q float64) float64 {
	m := findMetric(reg, name)
	if m == nil || m.Count == 0 || len(m.Buckets) == 0 {
		return 0
	}
	target := q * float64(m.Count)
	lo, prev := 0.0, uint64(0)
	for _, b := range m.Buckets {
		if float64(b.Count) >= target && b.Count > prev {
			hi := b.Le
			if hi == math.MaxFloat64 {
				return lo
			}
			frac := (target - float64(prev)) / float64(b.Count-prev)
			return lo + frac*(hi-lo)
		}
		lo, prev = b.Le+1, b.Count
	}
	return lo
}

// memProfile returns the cumulative sampled allocated bytes per stack.
func memProfile() map[[32]uintptr]int64 {
	var recs []runtime.MemProfileRecord
	n, _ := runtime.MemProfile(nil, true)
	for {
		recs = make([]runtime.MemProfileRecord, n+64)
		var ok bool
		if n, ok = runtime.MemProfile(recs, true); ok {
			recs = recs[:n]
			break
		}
	}
	out := make(map[[32]uintptr]int64, len(recs))
	for _, r := range recs {
		out[r.Stack0] += r.AllocBytes
	}
	return out
}

// allocByLayer attributes the allocations made between two memory
// profiles to layers, leaving out the CPU profiler's own buffers.
func allocByLayer(pre, post map[[32]uintptr]int64) map[string]int64 {
	out := map[string]int64{}
	for stack, b := range post { //charmvet:ordered (integer sums commute)
		d := b - pre[stack]
		if d <= 0 {
			continue
		}
		pcs := stack[:]
		for i, pc := range pcs {
			if pc == 0 {
				pcs = pcs[:i]
				break
			}
		}
		if fr := pcFrames(pcs); !profilerStack(fr) {
			out[stackLayer(fr)] += d
		}
	}
	return out
}

// profilerStack reports whether an allocation was made by runtime/pprof.
func profilerStack(fr []frame) bool {
	for _, f := range fr {
		if strings.HasPrefix(f.Func, "runtime/pprof.") {
			return true
		}
	}
	return false
}

// recorder is the ledger's charm.TraceHooks: it counts executions per
// entry name, and the collectives' fan-out executions.
type recorder struct {
	sends   uint64
	fanout  uint64
	entries map[entryKey]uint64
}

// entryKey names an entry method; array is "" for PE-level handlers.
type entryKey struct{ array, entry string }

func (r *recorder) MsgSend(at des.Time, srcPE, dstPE, size int, cause uint64) uint64 {
	r.sends++
	return r.sends
}

func (r *recorder) MsgRecv(at des.Time, pe int, sendID uint64, hops int) {}

func (r *recorder) EntryBegin(at des.Time, pe int, array, entry string, idx charm.Index, cause uint64) {
	if array == "" {
		switch entry {
		case "rts:bcast", "rts:mcast", "rts:func":
			r.fanout++
		}
	}
	r.entries[entryKey{array, entry}]++
}

func (r *recorder) EntryEnd(at des.Time, pe int, array, entry string, idx charm.Index, cause uint64) {
}
func (r *recorder) Migration(at des.Time, array string, idx charm.Index, fromPE, toPE int) {}
func (r *recorder) LBStart(at des.Time, round, numObjs int)                                {}
func (r *recorder) LBDecision(at des.Time, strategy string, numMigrations int)             {}
func (r *recorder) LBDone(at des.Time, round, moved int, duration des.Time)                {}
func (r *recorder) Checkpoint(at des.Time, kind string, bytes int)                         {}
func (r *recorder) TramBuffer(at des.Time, pe, depth int)                                  {}
func (r *recorder) TramFlush(at des.Time, pe, items int, timed bool)                       {}
func (r *recorder) Fault(at des.Time, kind string, pe int)                                 {}

// timedStrategy times each Balance call as an lb.balance span under the
// pass's run span.
type timedStrategy struct {
	inner charm.Strategy
	led   *ledger
}

func (s *timedStrategy) Name() string { return s.inner.Name() }

func (s *timedStrategy) Balance(objs []charm.LBObject, pes []charm.LBPE) []charm.Migration {
	sp := s.led.spans.begin("lb.balance", s.led.backend, s.led.runSpan)
	t0 := s.led.clk.now()
	migs := s.inner.Balance(objs, pes)
	s.led.BalanceNs += s.led.clk.now() - t0
	s.led.spans.end(sp)
	return migs
}

// timedCostStrategy also forwards the inner strategy's decision-cost
// model; without it the runtime would fall back to its default model and
// the modeled LB time, and with it the digest, would change.
type timedCostStrategy struct {
	*timedStrategy
	cm charm.StrategyCostModeler
}

func (s timedCostStrategy) DecisionCost(nObjs, nPEs int) float64 {
	return s.cm.DecisionCost(nObjs, nPEs)
}

func timeStrategy(s charm.Strategy, l *ledger) charm.Strategy {
	t := &timedStrategy{inner: s, led: l}
	if cm, ok := s.(charm.StrategyCostModeler); ok {
		return timedCostStrategy{t, cm}
	}
	return t
}

// layerBackend is the engine a per-layer metric without a backend suffix
// is read from: the engine layers from their own engine, everything else
// from the sequential run.
func layerBackend(layer string) string {
	switch layer {
	case "parsim":
		return "cons"
	case "optsim", "spec":
		return "opt"
	}
	return "seq"
}

// metricBackend splits a backend suffix off a metric name.
func metricBackend(d metricDef) (base, b string) {
	if i := strings.LastIndexByte(d.Name, '.'); i >= 0 {
		for _, k := range backendKeys {
			if d.Name[i+1:] == k {
				return d.Name[:i], k
			}
		}
	}
	return d.Name, layerBackend(d.Layer)
}

// ledgerMetrics computes the --trace 1 metrics. Exact counters come from
// each engine's first traced pass and must repeat in every later one;
// timers are medians over the traced passes; profile shares pool the
// samples of all of them. The Go runtime's GC and allocation figures come
// from the untraced passes, which carry no instrument allocations.
func ledgerMetrics(plain, traced map[string][]pass, chk *checker) map[string]float64 {
	m := map[string]float64{}
	leds := map[string][]*ledger{}
	for _, b := range backends {
		m["_wall."+b.Key] = median(field(plain[b.Key], func(p pass) float64 { return p.WallS }))
		for _, p := range traced[b.Key] {
			if p.Err != nil || p.Led == nil {
				continue
			}
			if p.Led.Err != nil {
				chk.fail(fmt.Sprintf("%s ledger: %v", b.Key, p.Led.Err))
				continue
			}
			leds[b.Key] = append(leds[b.Key], p.Led)
		}
		ls := leds[b.Key]
		for i := 1; i < len(ls); i++ {
			if diff := exactDiff(ls[0].Exact, ls[i].Exact); diff != "" {
				chk.fail(fmt.Sprintf("%s exact counters differ between traced passes 1 and %d: %s", b.Key, i+1, diff))
			}
		}
		if len(ls) == 0 {
			chk.fail(fmt.Sprintf("%s: no traced pass completed", b.Key))
		}
	}

	cpu := func(b, layer string) float64 {
		return share(leds[b], layer, func(l *ledger) map[string]int64 { return l.CPU })
	}
	alloc := func(b, layer string) float64 {
		return share(leds[b], layer, func(l *ledger) map[string]int64 { return l.Alloc })
	}
	for _, d := range perLayer {
		base, b := metricBackend(d)
		ls := leds[b]
		if len(ls) == 0 {
			continue
		}
		switch {
		case d.Kind == kindExact:
			m[d.Name] = ls[0].Exact[d.Name]
		case strings.HasSuffix(base, ".cpu_share"):
			m[d.Name] = cpu(b, d.Layer)
		case strings.HasSuffix(base, ".alloc_share"):
			m[d.Name] = alloc(b, d.Layer)
		case base == "lb.balance_s":
			m[d.Name] = medianOf(ls, func(l *ledger) float64 { return float64(l.BalanceNs) / 1e9 })
		case base == "pup.pack_ns_per_kb":
			m[d.Name] = medianOf(ls, func(l *ledger) float64 { return l.PackNsKB })
		case base == "pup.unpack_ns_per_kb":
			m[d.Name] = medianOf(ls, func(l *ledger) float64 { return l.UnpackNsKB })
		case base == "gc.cycles":
			m[d.Name] = median(field(plain[b], func(p pass) float64 { return p.GCCycles }))
		case base == "allocs_per_event":
			m[d.Name] = perEvent(plain[b], func(p pass) float64 { return p.Mallocs })
		case base == "alloc_bytes_per_event":
			m[d.Name] = perEvent(plain[b], func(p pass) float64 { return p.AllocBytes })
		case base == "trace.overhead_frac":
			tw := median(field(traced[b], func(p pass) float64 { return p.WallS }))
			m[d.Name] = ratio(tw, m["_wall."+b]) - 1
		default:
			m[d.Name] = medianOf(ls, func(l *ledger) float64 { return l.Timed[d.Name] })
		}
	}
	return m
}

// exactDiff names the first counter that differs between two passes.
func exactDiff(a, b map[string]float64) string {
	keys := make([]string, 0, len(a))
	for k := range a { //charmvet:ordered (sorted below)
		keys = append(keys, k)
	}
	for k := range b { //charmvet:ordered (sorted below)
		if _, ok := a[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		if a[k] != b[k] {
			return fmt.Sprintf("%s %v vs %v", k, a[k], b[k])
		}
	}
	return ""
}

func medianOf(ls []*ledger, f func(*ledger) float64) float64 {
	xs := make([]float64, len(ls))
	for i, l := range ls {
		xs[i] = f(l)
	}
	return median(xs)
}

// perEvent divides a summed runtime statistic by the summed event count.
func perEvent(ps []pass, f func(pass) float64) float64 {
	var n, ev float64
	for _, p := range ps {
		if p.Err == nil {
			n += f(p)
			ev += p.Events
		}
	}
	return ratio(n, ev)
}

// share is layer's fraction of the pooled profile of ls.
func share(ls []*ledger, layer string, prof func(*ledger) map[string]int64) float64 {
	var part, total int64
	for _, l := range ls {
		for k, v := range prof(l) { //charmvet:ordered (integer sums commute)
			total += v
			if k == layer {
				part += v
			}
		}
	}
	return ratio(float64(part), float64(total))
}
