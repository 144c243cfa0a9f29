package main

import (
	"path"
	"strings"
)

// Layer attribution. A profile sample or an allocation belongs to the layer
// of its innermost charmgo frame, chosen by that frame's package and, inside
// internal/charm, its file. A stack with no charmgo frame is go_runtime; a
// frame of this driver is tracing, since the only driver code running under
// the profiler is its recorder and LB timing wrapper.

const layerGoRuntime = "go_runtime"

// layerRule maps one package, or with Tree a package and everything below
// it, to a layer.
type layerRule struct {
	Pkg   string
	Tree  bool
	Layer string
}

var layerRules = []layerRule{
	{"charmgo/internal/des", false, "des"},
	{"charmgo/internal/parsim", false, "parsim"},
	{"charmgo/internal/optsim", false, "optsim"},
	// On the benchmark's workloads only the speculation controller's
	// snapshot-interval and window control points drive ctrlpoint.
	{"charmgo/internal/ctrlpoint", false, "spec"},
	{"charmgo/internal/charm", false, "charm"}, // split by file, see charmFileLayers
	{"charmgo/internal/lb", false, "lb"},
	{"charmgo/internal/malleable", false, "lb"},
	{"charmgo/internal/pup", true, "pup"},
	{"charmgo/internal/machine", false, "machine"},
	{"charmgo/internal/cloud", false, "machine"},
	{"charmgo/internal/apps", true, "apps"},
	{"charmgo/internal/telemetry", false, "tracing"},
	{"charmgo/internal/projections", true, "tracing"},
	{"charmgo/internal/trace", false, "tracing"},
	{"charmgo/internal/ckpt", false, "ckpt"},
	{"charmgo/internal/chaos", false, "chaos"},
	{"charmgo/internal/tram", false, "tram"},
	{"charmgo/internal/ampi", false, "ampi"},
	{"charmgo/internal/power", false, "power"},
	{"charmgo/internal/analysis", true, "tools"},
	{"charmgo/internal/ccs", false, "tools"},
	{"charmgo/internal/figures", false, "tools"},
	{"charmgo/perfbench", false, "tracing"},
	{"main", false, "tracing"},
	{"charmgo", false, "tools"},
	{"charmgo/cmd", true, "tools"},
	{"charmgo/examples", true, "tools"},
}

// charmFileLayers splits internal/charm: speculation is state saving,
// collective/multicast/qd/group are the collectives, lb.go is the LB
// framework, and every other file is message delivery.
var charmFileLayers = map[string]string{
	"speculation.go": "spec",
	"collective.go":  "collectives",
	"multicast.go":   "collectives",
	"qd.go":          "collectives",
	"group.go":       "collectives",
	"lb.go":          "lb",
}

// matchingRules returns the rules that claim pkg.
func matchingRules(pkg string) []layerRule {
	var out []layerRule
	for _, r := range layerRules {
		if pkg == r.Pkg || (r.Tree && strings.HasPrefix(pkg, r.Pkg+"/")) {
			out = append(out, r)
		}
	}
	return out
}

// packageLayer returns the layer of pkg, or "" when no rule claims it.
func packageLayer(pkg string) string {
	rs := matchingRules(pkg)
	if len(rs) == 0 {
		return ""
	}
	return rs[0].Layer
}

// funcPackage extracts the package path from a symbol name such as
// "charmgo/internal/charm.(*Runtime).deliver.func1".
func funcPackage(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// isOwnFrame reports whether a symbol belongs to charmgo or this driver.
func isOwnFrame(fn string) bool {
	return strings.HasPrefix(fn, "charmgo/") || strings.HasPrefix(fn, "charmgo.") ||
		strings.HasPrefix(fn, "main.")
}

// frameLayer attributes one frame, returning "" for frames outside
// charmgo (the Go runtime and standard library).
func frameLayer(fn, file string) string {
	if !isOwnFrame(fn) {
		return ""
	}
	l := packageLayer(funcPackage(fn))
	if l == "charm" {
		if fl, ok := charmFileLayers[path.Base(file)]; ok {
			return fl
		}
		return "delivery"
	}
	if l == "" {
		return "tools"
	}
	return l
}

// frame is one resolved stack frame.
type frame struct{ Func, File string }

// stackLayer attributes a stack given leaf first.
func stackLayer(stack []frame) string {
	for _, f := range stack {
		if l := frameLayer(f.Func, f.File); l != "" {
			return l
		}
	}
	return layerGoRuntime
}
