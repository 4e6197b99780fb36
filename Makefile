GO ?= go

.PHONY: all build vet fmt-check test race race-core race-dataplane race-screp race-server race-tenant race-bytecode allocs-gate race-poison serve-smoke trace-smoke tenant-smoke check perfbench-check bench bench-guard bench-smoke bench-server bench-tenant fuzz-smoke fuzz clean

all: check

build:
	$(GO) build ./...

# fmt-check fails (listing the offenders) when any tracked Go file is not
# gofmt-clean; it never rewrites files.
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet: build fmt-check
	$(GO) vet ./...

test: vet
	$(GO) test ./...

race:
	$(GO) test -race ./...

# race-core focuses the race detector on the simulator hot loop (the part
# the event-driven scheduler rewrote); check.sh runs it explicitly so a
# future narrowing of `race` cannot silently drop core coverage.
race-core:
	$(GO) test -race -count 1 ./internal/core

# race-dataplane focuses the race detector on the concurrent execution
# engine — the one package whose correctness claims are about goroutine
# interleavings; like race-core, pinned here so `race` can never silently
# drop it.
race-dataplane:
	$(GO) test -race -count 1 ./internal/dataplane

# allocs-gate is the hot-path allocation regression gate, run over both
# engines (sharded and screp): steady-state Submit must perform exactly zero
# heap allocations per packet and SubmitBatch ~zero per chunk
# (testing.AllocsPerRun counts process-wide mallocs, so worker-side
# regressions are caught too). Deliberately not under -race: the race
# runtime allocates, so those tests self-skip there.
allocs-gate:
	$(GO) test -count 1 -run 'TestSubmitSteadyStateAllocs|TestSubmitBatchSteadyStateAllocs' ./internal/dataplane

# race-poison runs the dataplane suite with poison-on-free compiled in
# (-tags mp5debug) under the race detector: every recycled packet is
# clobbered with sentinels, so a stale reference either races or corrupts
# an equivalence oracle loudly.
race-poison:
	$(GO) test -tags mp5debug -race -count 1 ./internal/dataplane

# race-screp focuses the race detector on the state-compute-replication
# engine — its coherence story is a lock-free stamp-chained replay ring
# shared by all replicas plus a mutex-free order log written inside the
# globally-serialized stateful span; exactly the kind of claim only the
# race detector can falsify.
race-screp:
	$(GO) test -race -count 1 ./internal/screp

# race-server focuses the race detector on the network daemon — listeners,
# the bounded ingress queue, the serial admitter, and the egress-ack path
# all interleave; the loopback soak with differential verification must
# stay race-clean.
race-server:
	$(GO) test -race -count 1 ./internal/server

# race-tenant focuses the race detector on the multi-tenant registry —
# lock-free ByID/Active snapshots racing hot swaps and quota accounting are
# exactly the interleavings the package exists to get right.
race-tenant:
	$(GO) test -race -count 1 ./internal/tenant

# race-bytecode pins a race-enabled pass over the shared bytecode
# compiler/VM — the per-stage executor under every engine — so its
# differential and property suites can never silently leave the race gate.
race-bytecode:
	$(GO) test -race -count 1 ./internal/ir/bytecode

# serve-smoke is the end-to-end daemon soak: build mp5d and mp5load, run a
# fixed-seed closed-loop TCP workload over loopback (zero loss required),
# probe the admin plane, SIGTERM, and require a clean drain with
# differential equivalence at the daemon.
serve-smoke:
	sh scripts/serve_smoke.sh

# tenant-smoke is the end-to-end multi-tenant soak: two tenants with
# different programs and quotas share one daemon, mp5load drives both
# concurrently, alpha is hot-swapped via POST /programs/alpha mid-run, and
# the SIGTERM drain must report per-tenant/per-version equivalence.
tenant-smoke:
	sh scripts/tenant_smoke.sh

# trace-smoke is the end-to-end tracing soak: run the daemon with 1/16 wire
# span sampling and a JSONL span stream, drive a fixed-seed TCP workload,
# check the live trace surface (/stats, /metrics, mp5top), then validate
# the drained span stream with mp5trace (stage sums must reconcile with
# span totals; the exact expected span count must be present).
trace-smoke:
	sh scripts/trace_smoke.sh

# check is the full local gate: build, gofmt, vet, the race-enabled test
# suite, the hot-path allocation gate, the poison-on-free lifecycle pass,
# the deterministic differential-fuzzing smoke, the daemon and tracing
# soaks, the benchmark module, and the telemetry-overhead guard benchmark.
check: vet race race-screp allocs-gate race-poison fuzz-smoke serve-smoke trace-smoke tenant-smoke perfbench-check bench-guard

# perfbench-check vets and tests the benchmark module. perfbench/ is a
# separate Go module, so the root `go test ./...` never compiles it; this
# step keeps an engine API change from breaking the benchmark silently.
perfbench-check:
	cd perfbench && $(GO) vet . && $(GO) test -count 1 .

# fuzz-smoke is the deterministic, seeded, time-bounded slice of the
# differential fuzzing harness: MP5_FUZZ_CASES fixed cases (program +
# workload) checked against the single-pipeline reference on every
# order-preserving architecture, plus a run of the committed seed corpus —
# then the same smoke again with the compiled bytecode executor forced on
# every engine.
fuzz-smoke:
	MP5_FUZZ_CASES=40 $(GO) test -run 'TestDifferentialSmoke|FuzzDifferential' ./internal/fuzz
	MP5_FUZZ_CASES=40 MP5_FUZZ_EXECUTOR=bytecode $(GO) test -count 1 -run TestDifferentialSmoke ./internal/fuzz
	MP5_FUZZ_CASES=40 MP5_FUZZ_ENGINE=screp $(GO) test -count 1 -run TestDifferentialSmoke ./internal/fuzz

# fuzz runs open-ended coverage-guided differential fuzzing (ctrl-C to stop;
# see also cmd/mp5fuzz for long offline sweeps with JSONL artifacts).
fuzz:
	$(GO) test -run FuzzDifferential -fuzz FuzzDifferential ./internal/fuzz

bench:
	$(GO) test -bench . -benchtime 1x -run ^$$ .

# bench-guard runs the disabled-telemetry guard: BenchmarkTraceDisabled must
# stay within 2% of the seed's BenchmarkSimulatorPacketRate (compare the
# pkts/s metrics; BenchmarkTraceTelemetry shows the enabled-path cost).
bench-guard:
	$(GO) test -bench 'BenchmarkTrace|BenchmarkSimulatorPacketRate' -benchtime 2x -run ^$$ .

# bench-smoke times the event-driven scheduler against the legacy full
# sweep on sparse and dense traces, plus the per-stage executors
# (tree-walking interpreter vs compiled bytecode VM) driven at line rate
# on the same traces, and records the machine-readable perf trajectory in
# BENCH_core.json (acceptance: sparse scheduler speedup ≥ 2x, dense within
# 5% of the sweep, bytecode ≥ 1.5x over the interpreter at dense line
# rate), then refreshes the server loopback numbers. The in-process
# engines are measured by perfbench (bash perfbench/run.sh), whose ladder
# times both state policies at w1/w2 with repeated runs.
bench-smoke: bench-server
	$(GO) run ./cmd/mp5bench -core-bench -bench-out BENCH_core.json

# bench-server times the full network path — the closed-loop TCP client
# against an in-process daemon over loopback — at worker counts
# {1, 2, GOMAXPROCS} and records pps plus RTT quantiles in
# BENCH_server.json; the gap to perfbench's in-process engine ladder prices
# the wire.
bench-server:
	$(GO) run ./cmd/mp5bench -server-bench -bench-out BENCH_server.json

# bench-tenant refreshes just the noisy-neighbor section of
# BENCH_server.json (victim tenant solo vs with a quota-capped flooding
# co-tenant; the recorded degradation must stay under 10%), preserving the
# -server-bench sections already in the file.
bench-tenant:
	$(GO) run ./cmd/mp5bench -tenant-bench -bench-out BENCH_server.json

clean:
	$(GO) clean ./...
