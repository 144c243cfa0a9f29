#!/usr/bin/env sh
# check.sh — the full local gate: build, go vet, charmvet (determinism &
# PUP-completeness rules, see DESIGN.md "Determinism rules"), the test
# suite under the race detector, the cross-backend equivalence tests at
# several GOMAXPROCS values, a smoke run of the parallel benchmark, and
# the chaos fault-injection soak. CI runs exactly this.
set -eux

cd "$(dirname "$0")/.."

go build ./...
go vet ./...
# The committed baseline is empty; the flag is exercised here so the
# suppression path cannot rot. The -json run smokes the machine output.
go run ./cmd/charmvet -baseline charmvet.baseline ./...
go run ./cmd/charmvet -json ./... > /dev/null
go test -race ./...

# All three backends (sequential, conservative-parallel, optimistic) must
# produce bit-identical digests no matter how many host threads the phase
# workers are spread over — for the optimistic engine that covers
# speculation, rollback, and the commit pipeline. The projections suite
# holds the event-log flavor of the same guarantee: byte-identical traces
# across backends.
for procs in 1 2 8; do
	GOMAXPROCS=$procs go test -race -count=1 -run 'CrossBackend' ./internal/apps/determinism/ ./internal/projections/
done

# Engine conformance fuzzing, bounded: generated event programs (timestamp
# ties, Stop and RunUntil, global/sharded/commit-only events, and forced
# stragglers for the optimistic policy) must commit in des.Heap's order,
# with its Pending count after every commit and its Executed count, on
# des.Sequential and on the parallel engine core under both policies. The
# seed corpus also runs in go test.
go test -run '^$' -fuzz FuzzEngineOrder -fuzztime 30s ./internal/optsim/

# The core reuses one in-flight record and one completion channel per
# shard across launches, so a missing happens-before edge shows up only
# across relaunches, which a single race-detector pass can miss. Repeat
# the engine packages' tests under -race.
go test -race -count=10 ./internal/des/ ./internal/optsim/ ./internal/parsim/

# Telemetry gate: LeanMD/PDES/Stencil2D digests must be byte-identical with
# the telemetry probe attached vs detached on all three backends — the
# observability layer is strictly side-band, enforced under the race
# detector at both thread counts.
for procs in 1 8; do
	GOMAXPROCS=$procs go test -race -count=1 -run 'TelemetryNeutral' ./internal/telemetry/
done

# Telemetry overhead, for the PR record: attached vs detached wall time and
# the same digest-identity claim from the bench side.
scripts/bench.sh --telemetry --smoke

scripts/bench.sh --smoke
# Time Warp smoke: three-backend PHOLD at low lookahead; exits nonzero if
# the backends' digests diverge.
scripts/bench.sh --optsim --smoke
# Replay smoke: the same run with sparse state saving (image every 4th
# speculated execution), so rollbacks take the restore + coast-forward
# path; exits nonzero on digest divergence. The deeper torture matrix
# (K=1/4/16/adaptive on three apps, forced cascades) runs under -race in
# the test suite above (internal/apps/determinism ReplayTorture).
go run ./cmd/parsimbench -backend optimistic -smoke -snap-interval 4

# Full-registry cross-backend identity: every figure's table byte-identical
# on the sequential and parallel engines (SeqOnly figures 7/14 and the
# paper-scale Figure S skip with a recorded reason). Runs without -race —
# the sweep is minutes of simulation, and the race-flavored coverage of the
# same property is the CrossBackend loop above.
CHARMGO_FIGS_FULL=1 go test -count=1 -timeout 40m -run TestFigureCrossBackend ./internal/figures/

# Memory-budget gate: re-run the 1k/8k/64k virtual-PE scale benchmark and
# compare allocs/event, bytes/event, steady-state allocs, live heap, and
# the nil-payload runtime allocs/event against the committed
# BENCH_scale.json. Memory metrics are host-independent and fail the gate
# at >20% over budget; events/sec only warns (it depends on the host).
scripts/bench.sh --gate

# Tracing overhead: the same LeanMD run untraced vs fully traced, printed
# for the PR record. The untraced path must stay a nil check. Without -out,
# so the gate leaves the committed BENCH_projections.json (wall times from
# a full run) alone.
go run ./cmd/projections -selfbench -smoke

# Chaos soak: every campaign app survives its injected crashes with final
# values and state digests byte-identical to the failure-free run, on all
# three backends. The driver exits nonzero on any mismatch, unsurvived
# crash, or cross-backend divergence; the report is byte-deterministic.
go run ./cmd/chaos -out BENCH_chaos.json

# Multi-failure soak: seeded fuzz plans (correlated crash pairs, predicted
# failures, crashes landing mid-recovery) at replication degree R=2 — every
# plan must either converge byte-identically or fail with a typed
# unrecoverable error. 60 seeds here; the -fuzz harness in
# internal/chaos/ft_multi_test.go explores unseeded.
CHARMGO_CHAOS_SOAK=60 go test -count=1 -run TestFuzzCampaignSoak ./internal/chaos/

# Fault-tolerance bench: the replication-degree sweep and the
# evacuation-vs-rollback comparison; exits nonzero if any sweep cell's
# digests diverge from the failure-free run on any backend.
scripts/bench.sh --ft
