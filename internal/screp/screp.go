// Package screp executes compiled MP5 programs under State-Compute
// Replication (arXiv 2309.14647) — the competing answer to stateful
// multi-pipeline scaling that internal/dataplane's D2 index sharding
// reproduces from the source paper. Where the sharded engine partitions
// every register index across workers and steers packets to the owner,
// this engine replicates: every worker owns a full private copy of ALL
// register state, packets are sprayed round-robin with no address
// resolution, no shard map, and no crossbar steering, and state coherence
// is restored by replaying a compact per-packet write log.
//
// The mechanism:
//
//   - The packet's arrival id IS its global sequence number; packet s
//     executes on worker s mod k. Admission is therefore trivial — no
//     resolution stages run on the admitter, no tickets are issued.
//   - Every worker executes the full stage program against its own
//     replica. Before a packet's first stateful stage may run, the worker
//     replays the write deltas of every earlier sequence number it has not
//     yet applied (spinning until they are published); after its last
//     stateful stage it publishes its own delta — the final values of the
//     register slots the packet wrote — into a fixed-size sequence-indexed
//     ring, then runs the remaining stateless stages and egresses.
//   - Publication order is therefore exactly arrival order: publishing
//     sequence s requires every delta below s to be applied first, so the
//     stateful span of packet s happens strictly before the stateful span
//     of packet s+1, whichever workers run them. That global serialization
//     of stateful spans gives condition C1 — every register slot observes
//     accesses in arrival order — by construction, verified differentially
//     against equiv.ReferenceOrder in this package's tests and as a fourth
//     engine leg in internal/fuzz.
//
// The engine is a state policy inside internal/dataplane's runtime shell,
// the same shell the sharded engine runs in: the window, lifecycle,
// dispatch, egress recording and Result are shared, and this package keeps
// only the spray, the replay ring (replay, publish, converge), its worker
// loop and ReplicaStats. Multi-tenant handles stay with the sharded policy.
//
// The trade against sharding is the one the benchmark ladder measures
// (perfbench's dataplane.* and screp.* rows, DESIGN.md §18): replication
// pays nothing at admission and nothing for steering — stateless and
// read-mostly programs spray perfectly — but every written slot is
// re-applied by all k replicas, so write-heavy state costs k times the
// stores and the serialized stateful span bounds the parallel section.
package screp

import (
	"mp5/internal/dataplane"
	"mp5/internal/telemetry"
)

// Config parameterizes an Engine: the shell's configuration, shared with
// the sharded engine. Seed and RemapInterval have no meaning under
// replication (there is no shard map) and are ignored.
type Config = dataplane.Config

// Result summarizes one Engine.Run; DeltasPublished and WritesReplayed
// carry the replication overhead.
type Result = dataplane.Result

// Metrics is the engine's telemetry surface; NewMetrics registers the
// counters replication updates under screp_* names.
type Metrics = dataplane.Metrics

// NewMetrics registers the engine's counters on r (nil r yields all-nil
// counters, the disabled state). Deltas counts published per-packet write
// deltas (one per packet on stateful programs, including empty deltas that
// only advance the sequence chain); ReplayedWrites counts individual
// register stores re-applied on non-executing replicas.
func NewMetrics(r *telemetry.Registry) *Metrics {
	return &Metrics{
		Admitted:       r.NewCounter("screp_admitted_total", "packets admitted into the replication engine"),
		Egressed:       r.NewCounter("screp_egressed_total", "packets that completed all stages"),
		Deltas:         r.NewCounter("screp_deltas_total", "per-packet write deltas published to the replay ring"),
		ReplayedWrites: r.NewCounter("screp_replayed_writes_total", "register stores re-applied on non-executing replicas"),
		Stalls:         r.NewCounter("screp_stalls_total", "runs aborted by the liveness watchdog"),
	}
}

// ReplicaStat is one worker's live replication view: Executed counts
// packets this replica ran itself, Applied is its replay frontier
// (sequence numbers whose deltas it has applied), Lag is the
// published-but-unapplied delta count (pending replay depth), and
// ReplayWaitNs is cumulative wall time spent spinning for unpublished
// deltas.
type ReplicaStat struct {
	ID           int   `json:"id"`
	Executed     int64 `json:"executed"`
	Applied      int64 `json:"applied"`
	Lag          int64 `json:"lag"`
	ReplayWaitNs int64 `json:"replay_wait_ns"`
}
