package main

import (
	"encoding/json"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"charmgo/internal/analysis"
	"charmgo/internal/charm"
	"charmgo/internal/lb"
)

// contract is the part of BENCHMARK.json the driver must honour.
type contract struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadContract(t *testing.T) contract {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(b, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

func tinyOptions(t *testing.T, name string, workers int) options {
	t.Helper()
	w, err := findWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	return options{Workload: w, Seed: DefaultSeed, Tiny: true, Workers: workers, OutDir: t.TempDir()}
}

// TestContractMatchesCatalog pins BENCHMARK.json to the driver's catalog:
// the same workloads, and the same metric names with the same units.
func TestContractMatchesCatalog(t *testing.T) {
	c := loadContract(t)
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the driver %d", len(c.Workloads), len(workloads))
	}
	for i, w := range c.Workloads {
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload %d: BENCHMARK.json %q (%q), driver %q (%q)", i, w.Name, w.Why, workloads[i].Name, workloads[i].Why)
		}
	}
	check := func(kind string, got []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the catalog %d", kind, len(got), len(want))
		}
		for i := range got {
			if got[i].Name != want[i].Name || got[i].Unit != want[i].Unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], catalog %s [%s]", kind, i, got[i].Name, got[i].Unit, want[i].Name, want[i].Unit)
			}
		}
	}
	check("end_to_end", c.EndToEnd, endToEnd)
	check("per_layer", c.PerLayer, perLayer)
}

// TestTinyWorkloads runs every workload at a tiny size on all three
// engines, untraced and traced, and checks that every engine's digest
// equals the sequential one and that every metric BENCHMARK.json names is
// emitted with its unit.
func TestTinyWorkloads(t *testing.T) {
	c := loadContract(t)
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			o := tinyOptions(t, w.Name, runtime.NumCPU())
			timed := runTimed(o, 1)
			if !timed.Correct || timed.Failed != 0 || timed.Attempted != 3 {
				t.Fatalf("untraced: correct=%v failed=%d attempted=%d", timed.Correct, timed.Failed, timed.Attempted)
			}
			for _, m := range c.EndToEnd {
				v, ok := timed.Metrics[m.Name]
				if !ok || v.Unit != m.Unit || v.Value <= 0 {
					t.Errorf("end-to-end %s: got %+v (present %v), want unit %s and a positive value", m.Name, v, ok, m.Unit)
				}
			}
			traced := runTraced(o, 1)
			if !traced.Correct || traced.Failed != 0 {
				t.Fatalf("traced: correct=%v failed=%d", traced.Correct, traced.Failed)
			}
			for _, m := range c.PerLayer {
				if v, ok := traced.Metrics[m.Name]; !ok || v.Unit != m.Unit {
					t.Errorf("per-layer %s: got %+v (present %v), want unit %s", m.Name, v, ok, m.Unit)
				}
			}
			if traced.Metrics["des.events"].Value <= 0 || traced.Metrics["pup.state_bytes"].Value <= 0 {
				t.Errorf("exact counters not filled: des.events=%v pup.state_bytes=%v",
					traced.Metrics["des.events"].Value, traced.Metrics["pup.state_bytes"].Value)
			}
		})
	}
}

// exactCounters runs one traced round and returns each engine's exact
// counters.
func exactCounters(t *testing.T, o options) map[string]map[string]float64 {
	t.Helper()
	clk := newClock()
	chk := &checker{}
	byB := timedRounds(o, clk, 0, 1, true, chk, &spanLog{clk: clk})
	chk.finish()
	if chk.failed != 0 {
		t.Fatalf("traced round failed: %v", chk.messages)
	}
	out := map[string]map[string]float64{}
	for _, b := range backends {
		out[b.Key] = byB[b.Key][0].Led.Exact
	}
	return out
}

// TestExactCountersRepeat checks that the exact counters repeat bit for
// bit across two traced runs and across one worker and the CPU count.
func TestExactCountersRepeat(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			many := runtime.NumCPU()
			if many < 2 {
				many = 2
			}
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(many))
			first := exactCounters(t, tinyOptions(t, w.Name, many))
			again := exactCounters(t, tinyOptions(t, w.Name, many))
			runtime.GOMAXPROCS(1)
			one := exactCounters(t, tinyOptions(t, w.Name, 1))
			for _, b := range backends {
				if d := exactDiff(first[b.Key], again[b.Key]); d != "" {
					t.Errorf("%s: two traced runs differ: %s", b.Key, d)
				}
				if d := exactDiff(first[b.Key], one[b.Key]); d != "" {
					t.Errorf("%s: %d workers vs 1 worker differ: %s", b.Key, many, d)
				}
			}
		})
	}
}

// TestEveryInternalPackageHasOneLayer checks that each package under
// internal/ is claimed by exactly one layer rule, that every rule for
// internal/ names a package that exists, and that the file split of
// internal/charm names real files.
func TestEveryInternalPackageHasOneLayer(t *testing.T) {
	pkgs := map[string]bool{}
	err := filepath.WalkDir("../internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		rel, err := filepath.Rel("..", filepath.Dir(path))
		if err != nil {
			return err
		}
		pkgs["charmgo/"+filepath.ToSlash(rel)] = true
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 20 {
		t.Fatalf("found only %d internal packages", len(pkgs))
	}
	for pkg := range pkgs { //charmvet:ordered (independent checks)
		if rs := matchingRules(pkg); len(rs) != 1 {
			t.Errorf("%s is claimed by %d layer rules (%v), want exactly 1", pkg, len(rs), rs)
		}
	}
	for _, r := range layerRules {
		if !strings.HasPrefix(r.Pkg, "charmgo/internal/") {
			continue
		}
		used := false
		for pkg := range pkgs { //charmvet:ordered (existence test)
			if pkg == r.Pkg || (r.Tree && strings.HasPrefix(pkg, r.Pkg+"/")) {
				used = true
			}
		}
		if !used {
			t.Errorf("layer rule %s matches no package", r.Pkg)
		}
	}
	for file := range charmFileLayers { //charmvet:ordered (independent checks)
		if _, err := os.Stat(filepath.Join("../internal/charm", file)); err != nil {
			t.Errorf("charm file layer %s: %v", file, err)
		}
	}
}

func TestFrameLayer(t *testing.T) {
	cases := []struct{ fn, file, want string }{
		{"charmgo/internal/charm.(*Runtime).deliver", "/x/internal/charm/runtime.go", "delivery"},
		{"charmgo/internal/charm.(*specController).save", "/x/internal/charm/speculation.go", "spec"},
		{"charmgo/internal/charm.(*Ctx).Contribute", "/x/internal/charm/collective.go", "collectives"},
		{"charmgo/internal/apps/pdes.(*App).onEvent", "/x/pdes.go", "apps"},
		{"charmgo/internal/pup.Slice[...]", "/x/pup.go", "pup"},
		{"charmgo/internal/projections/metrics.(*Counter).Inc", "/x/metrics.go", "tracing"},
		{"main.(*recorder).EntryBegin", "/x/ledger.go", "tracing"},
		{"runtime.mallocgc", "/go/src/runtime/malloc.go", ""},
	}
	for _, c := range cases {
		if got := frameLayer(c.fn, c.file); got != c.want {
			t.Errorf("frameLayer(%s) = %q, want %q", c.fn, got, c.want)
		}
	}
	if got := stackLayer([]frame{{"runtime.mallocgc", ""}, {"runtime.gcBgMarkWorker", ""}}); got != layerGoRuntime {
		t.Errorf("stack without charmgo frames: %q, want %q", got, layerGoRuntime)
	}
}

// plainStrategy is a strategy without a decision-cost model.
type plainStrategy struct{}

func (plainStrategy) Name() string { return "plain" }
func (plainStrategy) Balance([]charm.LBObject, []charm.LBPE) []charm.Migration {
	return nil
}

// TestTimedStrategyForwardsCostModel checks that the LB timing wrapper
// implements charm.StrategyCostModeler exactly when the wrapped strategy
// does, so the modeled decision time is unchanged.
func TestTimedStrategyForwardsCostModel(t *testing.T) {
	l := &ledger{runSpan: -1, clk: newClock()}
	w := timeStrategy(lb.Greedy{}, l)
	cm, ok := w.(charm.StrategyCostModeler)
	if !ok {
		t.Fatal("wrapped lb.Greedy lost DecisionCost")
	}
	if got, want := cm.DecisionCost(100, 8), (lb.Greedy{}).DecisionCost(100, 8); got != want {
		t.Errorf("DecisionCost = %v, want %v", got, want)
	}
	if _, ok := timeStrategy(plainStrategy{}, l).(charm.StrategyCostModeler); ok {
		t.Error("wrapper of a strategy without DecisionCost must not model a cost")
	}
	if w.Name() != (lb.Greedy{}).Name() {
		t.Errorf("Name = %q", w.Name())
	}
}

// TestCharmvetClean runs the module's static-analysis suite over the
// driver: every wall-clock read carries a waiver and no wall value reaches
// simulated time.
func TestCharmvetClean(t *testing.T) {
	pkgs, err := analysis.Load(".", "./...")
	if err != nil {
		t.Fatalf("loading the driver: %v", err)
	}
	if len(pkgs) == 0 {
		t.Fatal("loader returned no packages")
	}
	for _, f := range analysis.DefaultSuite().Run(pkgs) {
		t.Errorf("%s", f)
	}
}
