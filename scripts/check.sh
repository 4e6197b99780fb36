#!/bin/sh
# check.sh — the repository's local CI gate: build, gofmt, vet, the
# race-enabled test suite, the differential-fuzzing smoke, the network
# daemon soak, the benchmark module, and the telemetry-overhead guard
# benchmark. Mirrors
# `make check` for environments without make.
set -eux

go build ./...
# Formatting gate: every tracked Go file must be gofmt-clean.
test -z "$(gofmt -l .)" || { gofmt -l .; exit 1; }
go vet ./...
go test -race ./...
# The simulator hot loop was rewritten event-driven; keep an explicit
# race-enabled pass over internal/core so narrowing the suite-wide -race run
# above can never silently drop it.
go test -race -count 1 ./internal/core
# The concurrent dataplane's correctness claims are about goroutine
# interleavings (ticket queues, parking, remap migration); its differential
# equivalence suite must always run under the race detector.
go test -race -count 1 ./internal/dataplane
# The state-compute-replication engine's coherence story is a lock-free
# stamp-chained replay ring shared by all replicas; its differential suite
# (including replica convergence) must always run under the race detector.
go test -race -count 1 ./internal/screp
# The network daemon's loopback soak (streaming ingestion, backpressure,
# egress acks, graceful drain, differential verification of the admitted
# order) must stay race-clean too.
go test -race -count 1 ./internal/server
# Allocs-per-op regression gate over both engines (sharded and screp):
# steady-state Submit must stay at exactly zero heap allocations per packet
# and SubmitBatch at ~zero per chunk.
# Deliberately NOT under -race (the race runtime allocates, which would
# make AllocsPerRun meaningless — those tests self-skip under -race).
go test -count 1 -run 'TestSubmitSteadyStateAllocs|TestSubmitBatchSteadyStateAllocs' ./internal/dataplane
# Pooled-object lifecycle gate: the mp5debug build poisons every recycled
# packet, so a use-after-recycle shows up as an oracle mismatch or a race.
# Run the whole dataplane suite with poisoning AND the race detector on.
go test -tags mp5debug -race -count 1 ./internal/dataplane
# The multi-tenant registry's claims are about lock-free snapshots racing
# hot swaps and shared-quota accounting; its suite gets a pinned
# race-enabled pass.
go test -race -count 1 ./internal/tenant
# The bytecode compiler/VM is the shared per-stage executor under every
# engine; its differential suites (interpreter vs canonical stack loop vs
# quickened micro-ops, golden disassembly, exact MaxStack, corrupt-code
# errors) get a pinned race-enabled pass.
go test -race -count 1 ./internal/ir/bytecode
# Differential-fuzzing smoke: a deterministic, seeded, time-bounded slice of
# the harness — fixed random programs and workloads checked against the
# single-pipeline reference (state, outputs, C1 access order) on every
# order-preserving architecture, plus the committed seed corpus.
MP5_FUZZ_CASES=40 go test -run 'TestDifferentialSmoke|FuzzDifferential' ./internal/fuzz
# The same smoke with the compiled bytecode executor forced on every
# engine: all three oracles (state, outputs, C1 access order) must hold on
# the quickened VM exactly as they do on the tree-walking interpreter.
MP5_FUZZ_CASES=40 MP5_FUZZ_EXECUTOR=bytecode go test -count 1 -run TestDifferentialSmoke ./internal/fuzz
# The same smoke restricted to the state-compute-replication engine: the
# fourth engine leg alone, so a replication regression is attributed
# directly instead of surfacing as noise in the full sweep.
MP5_FUZZ_CASES=40 MP5_FUZZ_ENGINE=screp go test -count 1 -run TestDifferentialSmoke ./internal/fuzz
# End-to-end daemon soak: mp5load drives mp5d over loopback TCP with a
# fixed seed; zero loss, a live admin plane, and a clean SIGTERM drain with
# reference equivalence are all required.
sh scripts/serve_smoke.sh
# End-to-end multi-tenant soak: two tenants with different programs and
# quotas share one daemon under concurrent load; one is hot-swapped via the
# admin plane mid-run, and the drain must report per-tenant/per-version
# equivalence with zero loss.
sh scripts/tenant_smoke.sh
# End-to-end tracing soak: the daemon with 1/16 wire-span sampling and a
# JSONL span stream; the live trace surface (/stats, /metrics, mp5top)
# must serve, and mp5trace must reconcile every exported span's stage sums
# against its total.
sh scripts/trace_smoke.sh
# The benchmark module: perfbench/ is a separate Go module, so the root
# `go test ./...` never compiles it; vet and test it here so an engine API
# change cannot break the benchmark silently.
(cd perfbench && go vet . && go test -count 1 .)
# Guard: the simulator with tracing disabled (BenchmarkTraceDisabled) must
# stay within 2% of the seed's BenchmarkSimulatorPacketRate; compare the
# pkts/s metrics printed below. BenchmarkTraceTelemetry shows the cost of
# the full consumer stack (metrics + sampler + spans + JSONL).
go test -bench 'BenchmarkTrace|BenchmarkSimulatorPacketRate' -benchtime 2x -run '^$' .
