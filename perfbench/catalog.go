package main

// Seeds. Workload inputs are generated from --seed; DefaultSeed is the one
// to tune against, HeldOutSeed is kept back for re-checking a claimed gain
// on inputs the change was not written against.
const (
	DefaultSeed = 1
	HeldOutSeed = 7919
)

// Metric kinds.
const (
	kindE2E     = "e2e"      // end-to-end, measured with tracing off
	kindExact   = "exact"    // a program counter that repeats bit for bit
	kindTimed   = "timed"    // wall spans and probe timers
	kindSampled = "sampled"  // a CPU or allocation profile share
	kindRuntime = "memstats" // Go runtime allocation/GC statistics
)

// metricDef is one named metric: its unit, the layer it belongs to, how it
// is measured, and the end-to-end metric a change in it should move.
type metricDef struct {
	Name  string
	Unit  string
	Layer string
	Kind  string
	Moves string
}

// backendKeys are the metric suffixes of the three engines.
var backendKeys = []string{"seq", "cons", "opt"}

// endToEnd lists the metrics printed with --trace 0.
var endToEnd = []metricDef{
	{"wall_s.seq", "s", "all", kindE2E, ""},
	{"wall_s.cons", "s", "all", kindE2E, ""},
	{"wall_s.opt", "s", "all", kindE2E, ""},
	{"setup_s", "s", "all", kindE2E, ""},
	{"live_heap_mb.seq", "MiB", "all", kindE2E, ""},
	{"live_heap_mb.opt", "MiB", "all", kindE2E, ""},
}

// perLayer lists the metrics printed with --trace 1: the layer ledger.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var out []metricDef
	add := func(name, unit, layer, kind, moves string) {
		out = append(out, metricDef{name, unit, layer, kind, moves})
	}
	// each adds name.<b> for every engine; it moves that engine's wall time.
	each := func(name, unit, layer, kind string) {
		for _, b := range backendKeys {
			add(name+"."+b, unit, layer, kind, "wall_s."+b)
		}
	}

	add("des.events", "count", "des", kindExact, "wall_s.seq")
	add("des.cpu_share.seq", "ratio", "des", kindSampled, "wall_s.seq")

	add("parsim.launched", "count", "parsim", kindExact, "wall_s.cons")
	add("parsim.inline", "count", "parsim", kindExact, "wall_s.cons")
	add("parsim.global", "count", "parsim", kindExact, "wall_s.cons")
	add("parsim.parallel_frac", "ratio", "parsim", kindExact, "wall_s.cons")
	add("parsim.phase_ns.p50", "ns", "parsim", kindTimed, "wall_s.cons")
	add("parsim.phase_ns.p99", "ns", "parsim", kindTimed, "wall_s.cons")
	add("parsim.stall_s", "s", "parsim", kindTimed, "wall_s.cons")
	add("parsim.window_stalls", "count", "parsim", kindTimed, "wall_s.cons")
	add("parsim.cpu_share", "ratio", "parsim", kindSampled, "wall_s.cons")
	add("parsim.alloc_share", "ratio", "parsim", kindSampled, "wall_s.cons")

	add("optsim.launched", "count", "optsim", kindExact, "wall_s.opt")
	add("optsim.committed", "count", "optsim", kindExact, "wall_s.opt")
	add("optsim.rolled_back", "count", "optsim", kindExact, "wall_s.opt")
	add("optsim.commit_frac", "ratio", "optsim", kindExact, "wall_s.opt")
	add("optsim.phase_ns.p50", "ns", "optsim", kindTimed, "wall_s.opt")
	add("optsim.phase_ns.p99", "ns", "optsim", kindTimed, "wall_s.opt")
	add("optsim.stall_s", "s", "optsim", kindTimed, "wall_s.opt")
	add("optsim.rollback_wait_s", "s", "optsim", kindTimed, "wall_s.opt")
	add("optsim.gvt_lag_vns.p99", "vns", "optsim", kindTimed, "wall_s.opt")
	add("optsim.cpu_share", "ratio", "optsim", kindSampled, "wall_s.opt")
	add("optsim.alloc_share", "ratio", "optsim", kindSampled, "wall_s.opt")

	add("spec.snapshots", "count", "spec", kindExact, "wall_s.opt")
	add("spec.snapshot_bytes", "B", "spec", kindExact, "live_heap_mb.opt")
	add("spec.snapshots_avoided", "count", "spec", kindExact, "wall_s.opt")
	add("spec.restores", "count", "spec", kindExact, "wall_s.opt")
	add("spec.replays", "count", "spec", kindExact, "wall_s.opt")
	add("spec.cpu_share", "ratio", "spec", kindSampled, "wall_s.opt")
	add("spec.alloc_share", "ratio", "spec", kindSampled, "live_heap_mb.opt")

	add("delivery.msgs_sent", "count", "delivery", kindExact, "wall_s.seq")
	add("delivery.bytes_sent", "B", "delivery", kindExact, "wall_s.seq")
	add("delivery.msgs_delivered", "count", "delivery", kindExact, "wall_s.seq")
	add("delivery.msgs_forwarded", "count", "delivery", kindExact, "wall_s.seq")
	each("delivery.cpu_share", "ratio", "delivery", kindSampled)
	each("delivery.alloc_share", "ratio", "delivery", kindSampled)

	add("collectives.fanout_execs", "count", "collectives", kindExact, "wall_s.seq")
	each("collectives.cpu_share", "ratio", "collectives", kindSampled)
	each("collectives.alloc_share", "ratio", "collectives", kindSampled)

	add("lb.rounds", "count", "lb", kindExact, "wall_s.seq")
	add("lb.migrations", "count", "lb", kindExact, "wall_s.seq")
	add("lb.balance_s", "s", "lb", kindTimed, "wall_s.seq")
	each("lb.cpu_share", "ratio", "lb", kindSampled)

	add("pup.state_bytes", "B", "pup", kindExact, "wall_s.opt")
	add("pup.pack_ns_per_kb", "ns/KiB", "pup", kindTimed, "wall_s.opt")
	add("pup.unpack_ns_per_kb", "ns/KiB", "pup", kindTimed, "wall_s.opt")
	each("pup.cpu_share", "ratio", "pup", kindSampled)

	each("machine.cpu_share", "ratio", "machine", kindSampled)
	each("apps.cpu_share", "ratio", "apps", kindSampled)

	each("gc.cycles", "count", "go_runtime", kindRuntime)
	each("allocs_per_event", "allocs/event", "go_runtime", kindRuntime)
	each("alloc_bytes_per_event", "B/event", "go_runtime", kindRuntime)
	each("go_runtime.cpu_share", "ratio", "go_runtime", kindSampled)

	// Tracing overhead moves no end-to-end metric: those run untraced.
	for _, b := range backendKeys {
		add("trace.overhead_frac."+b, "ratio", "tracing", kindTimed, "")
	}
	return out
}
