// Package dataplane executes compiled MP5 programs on a real goroutine
// topology instead of simulating one: one worker goroutine per pipeline,
// channel crossbars between pipelines, and actual shared-nothing register
// shards. Where internal/core models the architecture cycle by cycle, this
// package *is* the architecture, mapped onto cores:
//
//   - D1 (processing homogeneity): every worker runs the full program;
//     stateless packets are sprayed round-robin across workers.
//   - D2 (dynamically sharded state): each register index is owned by
//     exactly one worker, which holds the only live copy in its private
//     register file; a Figure-6-style remap migrates hot indices between
//     workers while their ticket queues are empty.
//   - D3 (crossbar steering): a packet whose next stateful stage resolved
//     to another pipeline is forwarded over that worker's mailbox channel.
//   - D4 (phantom order enforcement): at admission, a serial admitter
//     enqueues one ticket per resolved state slot in arrival order — the
//     execution-engine equivalent of the phantom placeholder. A worker may
//     only perform an access while the packet's ticket is at the head of
//     every slot queue of the visit; otherwise the packet parks on the
//     owning worker until the blocking ticket is retired.
//
// Correctness (condition C1) follows by construction: per-slot ticket
// queues are admission-ordered, accesses retire tickets in queue order, and
// the earliest in-flight packet always holds the head ticket of every slot
// it still needs — so the engine is deadlock-free and every slot observes
// accesses in arrival order, which implies functional equivalence with the
// single-pipeline reference (checked differentially in internal/fuzz).
//
// The sharded engine is one of two state policies run by the same runtime
// shell (shell.go): internal/screp's state-compute replication is the
// other. The shell owns the window, the lifecycle, dispatch and egress
// recording; this package's Engine adds D2 placement, D3 steering, D4
// tickets and multi-tenant handles, which stay sharded-only.
package dataplane

import (
	"runtime"
	"time"

	"mp5/internal/stats"
	"mp5/internal/telemetry"
)

// Config parameterizes an engine, sharded or replicated (screp.Config is an
// alias). Seed and RemapInterval steer D2 placement and are ignored by the
// replicated policy, which has no shard map.
type Config struct {
	// Workers is the number of pipeline workers k (one goroutine each);
	// 0 defaults to runtime.GOMAXPROCS(0).
	Workers int
	// Window bounds the number of in-flight packets (admitted but not yet
	// egressed). It is the admission-control semaphore that keeps every
	// mailbox overflow-free by construction; 0 defaults to 256.
	Window int
	// RemapInterval is the number of admissions between dynamic-sharding
	// remap passes (D2); 0 defaults to 256, negative disables remapping.
	RemapInterval int
	// Seed selects the initial index→worker placement: 0 keeps the plain
	// round-robin assignment (the simulator's MP5 default); any other
	// value deterministically shuffles the balanced round-robin owner set
	// of every sharded array, so distinct daemons can start from distinct
	// placements without biasing load toward low-numbered workers.
	// Unsharded arrays always home at stage mod k. Placement never affects
	// functional correctness (C1 ticketing is placement-independent), only
	// steering and remap trajectories.
	Seed int64
	// Interpret forces stage execution (admitter resolution stages and
	// worker stages alike) through the tree-walking ir interpreter
	// instead of the compiled bytecode VM. The interpreter is the
	// semantic oracle; the differential fuzz harness runs it against the
	// default compiled path.
	Interpret bool
	// RecordOutputs retains each packet's final header fields (required
	// for equivalence checking via equiv.CheckState).
	RecordOutputs bool
	// RecordAccessOrder logs the per-slot effective access order, keyed
	// like the simulator's EvAccess stream (required for C1 checking).
	RecordAccessOrder bool
	// RecordEgressOrder retains the wall-clock egress sequence so Result
	// can report Reordered (adds one atomic increment and one append to a
	// worker-private slice per egress).
	RecordEgressOrder bool
	// StallTimeout aborts the run when no packet egresses for this long
	// while packets are in flight (a liveness watchdog so differential
	// tests fail with Stalled instead of hanging); 0 defaults to 10s.
	StallTimeout time.Duration
	// Metrics, when non-nil, receives concurrent counter updates from the
	// admitter and every worker (nil disables with zero overhead).
	Metrics *Metrics
	// Tracer, when non-nil, receives sampled wire-to-wire spans: the
	// engine stamps window-wait, admit, crossbar, exec, ticket-wait, and
	// egress segments on packets submitted with a span (SubmitTraced) and
	// hands finished spans to the tracer's collector. Nil disables tracing
	// with nil-check-only overhead on the hot path.
	Tracer *Tracer
	// OnEgress, when non-nil, runs on the egressing worker's goroutine
	// with the packet id, after outputs are recorded and before the window
	// token is released. Keep it fast: a callback that blocks stalls that
	// worker and, through the admission window, eventually the whole
	// stream (the server uses it to send per-packet acks in lossless
	// mode, which is exactly the backpressure it wants).
	OnEgress func(id int64)
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Window <= 0 {
		c.Window = 256
	}
	if c.RemapInterval == 0 {
		c.RemapInterval = 256
	}
	if c.StallTimeout <= 0 {
		c.StallTimeout = 10 * time.Second
	}
	return c
}

// Metrics is the telemetry surface of both engines: plain registry
// counters, updated concurrently by the admitter and all workers
// (telemetry.Counter is atomic, so a shared Metrics is safe across engines
// and goroutines). A policy leaves the counters it never updates nil.
type Metrics struct {
	Admitted   *telemetry.Counter
	Egressed   *telemetry.Counter
	Steers     *telemetry.Counter
	Parks      *telemetry.Counter
	Wasted     *telemetry.Counter
	ShardMoves *telemetry.Counter
	Stalls     *telemetry.Counter
	QuotaShed  *telemetry.Counter
	// Deltas counts published per-packet write deltas and ReplayedWrites
	// the register stores re-applied on non-executing replicas (replicated
	// policy only; see screp.NewMetrics).
	Deltas         *telemetry.Counter
	ReplayedWrites *telemetry.Counter
}

// NewMetrics registers the sharded engine's counters on r (nil r yields
// all-nil counters, the disabled state).
func NewMetrics(r *telemetry.Registry) *Metrics {
	return &Metrics{
		Admitted:   r.NewCounter("dataplane_admitted_total", "packets admitted into the dataplane"),
		Egressed:   r.NewCounter("dataplane_egressed_total", "packets that completed all stages"),
		Steers:     r.NewCounter("dataplane_steers_total", "inter-worker crossbar forwards"),
		Parks:      r.NewCounter("dataplane_parks_total", "packets parked waiting for a head ticket"),
		Wasted:     r.NewCounter("dataplane_wasted_visits_total", "conservative tickets whose predicate was false at execution"),
		ShardMoves: r.NewCounter("dataplane_shard_moves_total", "register indices migrated between workers"),
		Stalls:     r.NewCounter("dataplane_stalls_total", "runs aborted by the liveness watchdog"),
		QuotaShed:  r.NewCounter("dataplane_quota_shed_total", "packets shed because the tenant admission quota was exhausted"),
	}
}

// Result summarizes one run of either engine.
type Result struct {
	Workers   int
	Injected  int64
	Completed int64
	// Steers counts crossbar forwards; Parks counts ticket waits; Wasted
	// counts conservative tickets whose access predicate evaluated false;
	// ShardMoves counts D2 migrations (sharded policy).
	Steers     int64
	Parks      int64
	Wasted     int64
	ShardMoves int64
	// DeltasPublished counts per-packet write deltas placed on the replay
	// ring; WritesReplayed counts the register stores other replicas
	// re-applied — the price of replication (replicated policy).
	DeltasPublished int64
	WritesReplayed  int64
	// Reordered counts packets that egressed after a later-arriving packet
	// (wall-clock reordering the concurrent engine introduces; only
	// populated with Config.RecordEgressOrder).
	Reordered int64
	// Stalled reports a watchdog abort: no egress progress for
	// StallTimeout with packets still in flight.
	Stalled bool
	// Elapsed is the wall-clock run time; PktsPerSec = Completed/Elapsed.
	Elapsed    time.Duration
	PktsPerSec float64
	// Latency is the merged per-worker admission-to-egress latency
	// histogram in microseconds. Each worker records into a private
	// histogram during the run and the engine merges them at drain time —
	// the intended share-nothing concurrency pattern for stats.Histogram.
	Latency *stats.Histogram
}
