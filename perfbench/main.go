// Command perfbench is charmgo's benchmark. It runs one workload on the
// sequential (des), conservative (parsim) and optimistic (optsim, adaptive
// state-saving interval) engines, interleaved in one process with
// GOMAXPROCS and the engines' worker count both set to the host's CPU
// count, and checks every engine's digest against the sequential one.
//
// With --trace 0 it prints the end-to-end metrics, measured with tracing
// off: median wall time per engine, set-up time, and live heap. With
// --trace 1 it runs untraced and traced passes and prints the per-layer
// ledger: exact counters, probe timers, and CPU and allocation profile
// shares attributed to layers (see layers.go and catalog.go).
//
// Run it from the repository root:
//
//	bash perfbench/run.sh --workload phold --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. attempted and failed count
// backend runs; a run fails on an error, a panic, or a digest that differs
// from the same process's sequential digest. On any failure both digests
// are printed and the command exits 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// timedInstances is how many input instances a --trace 0 run cycles
// through. A --trace 1 run uses one, so its exact counters must repeat.
const timedInstances = 6

// deadline bounds one invocation; a run still going then has stalled.
const deadline = 170 * time.Second

// result is the final JSON line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	name := flag.String("workload", "", "workload: phold, leanmd or stencil")
	seed := flag.Int64("seed", DefaultSeed, fmt.Sprintf("input seed (default %d; %d is held out for re-checking claims)", DefaultSeed, HeldOutSeed))
	seconds := flag.Int("seconds", 20, "measurement budget in seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics with tracing off; 1: the per-layer ledger")
	workers := flag.Int("workers", runtime.NumCPU(), "GOMAXPROCS and parallel-engine workers (at most the CPU count)")
	outDir := flag.String("out", ".bench_build/perfbench-out", "directory for span and flight-recorder files")
	catalog := flag.Bool("catalog", false, "print the workload and metric catalog (unit, layer, kind, the end-to-end metric each moves) as JSON and exit")
	flag.Parse()

	if *catalog {
		printCatalog()
		return
	}

	w, err := findWorkload(*name)
	if err != nil {
		fatal(err)
	}
	if *workers < 1 || *workers > runtime.NumCPU() {
		fatal(fmt.Errorf("--workers %d: must be between 1 and the CPU count %d", *workers, runtime.NumCPU()))
	}
	if *trace != 0 && *trace != 1 {
		fatal(fmt.Errorf("--trace %d: want 0 or 1", *trace))
	}
	if *seconds < 1 {
		fatal(fmt.Errorf("--seconds %d: want at least 1", *seconds))
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fatal(err)
	}
	runtime.GOMAXPROCS(*workers)
	time.AfterFunc(deadline, func() {
		fmt.Fprintf(os.Stderr, "perfbench: no result after %v: a run stalled\n", deadline)
		os.Exit(3)
	})

	o := options{Workload: w, Seed: *seed, Instances: 1, Workers: *workers, OutDir: *outDir}
	if *trace == 0 {
		o.Instances = timedInstances
	}
	fmt.Printf("host: nproc=%d GOMAXPROCS=%d workers=%d go=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), *workers, runtime.Version())
	fmt.Printf("workload: %s seed=%d (default %d, held out %d) instances=%d budget=%ds trace=%d\n  why: %s\n",
		w.Name, *seed, DefaultSeed, HeldOutSeed, o.Instances, *seconds, *trace, w.Why)

	budget := int64(*seconds) * 1e9
	var res result
	if *trace == 0 {
		res = runTimed(o, budget)
	} else {
		res = runTraced(o, budget)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

// printCatalog prints the workloads, seeds and metric definitions.
func printCatalog() {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type def struct {
		Name  string `json:"name"`
		Unit  string `json:"unit"`
		Layer string `json:"layer"`
		Kind  string `json:"kind"`
		Moves string `json:"moves,omitempty"`
	}
	defs := func(ds []metricDef) []def {
		out := make([]def, len(ds))
		for i, d := range ds {
			out[i] = def(d)
		}
		return out
	}
	var c struct {
		DefaultSeed int   `json:"default_seed"`
		HeldOutSeed int   `json:"held_out_seed"`
		Workloads   []wl  `json:"workloads"`
		EndToEnd    []def `json:"end_to_end"`
		PerLayer    []def `json:"per_layer"`
	}
	c.DefaultSeed, c.HeldOutSeed = DefaultSeed, HeldOutSeed
	for _, w := range workloads {
		c.Workloads = append(c.Workloads, wl{w.Name, w.Why})
	}
	c.EndToEnd, c.PerLayer = defs(endToEnd), defs(perLayer)
	b, err := json.MarshalIndent(c, "", "  ")
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(b))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(2)
}

// runTimed measures the end-to-end metrics.
func runTimed(o options, budget int64) result {
	clk := newClock()
	chk := &checker{}
	byB := timedRounds(o, clk, budget, 1, false, chk, nil)
	chk.finish()
	m := endToEndMetrics(byB)
	for _, b := range backends {
		walls := field(byB[b.Key], func(p pass) float64 { return p.WallS })
		q1, q2, q3 := quartiles(walls)
		heaps := field(byB[b.Key], func(p pass) float64 { return p.HeapMB })
		h1, _, h3 := quartiles(heaps)
		fmt.Printf("%-4s n=%d wall median=%.4f s quartiles=[%.4f, %.4f] s; live heap mean=%.3f MiB quartiles=[%.3f, %.3f] MiB\n",
			b.Key, len(walls), q2, q1, q3, mean(heaps), h1, h3)
	}
	printSpeedups(m["wall_s.seq"], m["wall_s.cons"], m["wall_s.opt"])
	return report(chk, endToEnd, m)
}

// runTraced measures the per-layer ledger: a third of the budget on
// untraced rounds (the base of the tracing overhead), the rest on traced
// rounds, at least two so the exact counters can be compared.
func runTraced(o options, budget int64) result {
	clk := newClock()
	chk := &checker{}
	spans := &spanLog{clk: clk}
	plain := timedRounds(o, clk, budget/3, 1, false, chk, nil)
	traced := timedRounds(o, clk, budget-budget/3, 2, true, chk, spans)
	chk.finish()
	m := ledgerMetrics(plain, traced, chk)
	fmt.Printf("rounds: %d untraced, %d traced per engine\n", len(plain["seq"]), len(traced["seq"]))
	printSpeedups(m["_wall.seq"], m["_wall.cons"], m["_wall.opt"])
	printEntries(traced["seq"])
	printLayerShares(traced)
	path := filepath.Join(o.OutDir, fmt.Sprintf("spans-%s-%d.json", o.Workload.Name, o.Seed))
	if err := writeJSON(path, spans.spans); err != nil {
		chk.fail(fmt.Sprintf("writing spans: %v", err))
	} else {
		fmt.Printf("spans: %d written to %s\n", len(spans.spans), path)
	}
	return report(chk, perLayer, m)
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// printSpeedups prints the engine speedups with their bases. They are not
// metrics: a change that sped up only the sequential engine would lower
// them.
func printSpeedups(seq, cons, opt float64) {
	fmt.Printf("speedup seq/cons = %.3f (%.4f s / %.4f s), seq/opt = %.3f (%.4f s / %.4f s)\n",
		ratio(seq, cons), seq, cons, ratio(seq, opt), seq, opt)
}

// printEntries prints the sequential traced pass's busiest entry methods.
func printEntries(ps []pass) {
	if len(ps) == 0 || ps[0].Led == nil {
		return
	}
	type kv struct {
		k string
		v uint64
	}
	var es []kv
	for k, v := range ps[0].Led.Entries { //charmvet:ordered (sorted below)
		es = append(es, kv{k.array + "/" + k.entry, v})
	}
	sort.Slice(es, func(i, j int) bool { return es[i].v > es[j].v || (es[i].v == es[j].v && es[i].k < es[j].k) })
	if len(es) > 8 {
		es = es[:8]
	}
	var parts []string
	for _, e := range es {
		parts = append(parts, fmt.Sprintf("%s=%d", e.k, e.v))
	}
	fmt.Printf("entries (seq, executions): %s\n", strings.Join(parts, " "))
}

// printLayerShares prints every layer's pooled CPU and allocation share
// per engine, including layers without a named metric.
func printLayerShares(traced map[string][]pass) {
	for _, b := range backends {
		var ls []*ledger
		for _, p := range traced[b.Key] {
			if p.Led != nil && p.Led.Err == nil {
				ls = append(ls, p.Led)
			}
		}
		seen := map[string]bool{}
		var layers []string
		for _, l := range ls {
			for k := range l.CPU { //charmvet:ordered (sorted below)
				seen[k] = true
			}
			for k := range l.Alloc { //charmvet:ordered (sorted below)
				seen[k] = true
			}
		}
		for k := range seen { //charmvet:ordered (sorted below)
			layers = append(layers, k)
		}
		sort.Strings(layers)
		var parts []string
		for _, k := range layers {
			parts = append(parts, fmt.Sprintf("%s %.3f/%.3f", k,
				share(ls, k, func(l *ledger) map[string]int64 { return l.CPU }),
				share(ls, k, func(l *ledger) map[string]int64 { return l.Alloc })))
		}
		var samples int64
		for _, l := range ls {
			for _, n := range l.CPU { //charmvet:ordered (integer sums commute)
				samples += n
			}
		}
		// runtime/pprof samples at 100 Hz: one sample is 10 ms of CPU.
		fmt.Printf("layers %s (%.3f cpu-s per pass; cpu/alloc share): %s\n", b.Key,
			ratio(float64(samples)/100, float64(len(ls))), strings.Join(parts, ", "))
	}
}

// report prints every metric of defs with its unit and builds the result.
func report(chk *checker, defs []metricDef, m map[string]float64) result {
	for _, msg := range chk.messages {
		fmt.Println("FAIL", msg)
	}
	res := result{
		Correct:   chk.failed == 0,
		Attempted: chk.attempted,
		Failed:    chk.failed,
		Metrics:   map[string]metricValue{},
	}
	fmt.Printf("fail_frac = %d / %d\n", chk.failed, chk.attempted)
	for _, d := range defs {
		v := m[d.Name]
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
		fmt.Printf("%-30s %16.6g %-12s %-12s %s\n", d.Name, v, d.Unit, d.Layer, d.Kind)
	}
	return res
}
