package dataplane

import (
	"reflect"
	"testing"

	"mp5/internal/apps"
	"mp5/internal/equiv"
	"mp5/internal/workload"
)

// TestStreamingEquivalence drives the engine through the open-ended
// Start/Submit/Drain path instead of Run and holds it to the same
// differential bar: state, outputs, and per-slot C1 access order must match
// the single-pipeline reference.
func TestStreamingEquivalence(t *testing.T) {
	prog, err := apps.Synthetic(4, 64, 16)
	if err != nil {
		t.Fatal(err)
	}
	arrivals := workload.Synthetic(prog, workload.Spec{
		Packets: 3000, Pipelines: 4, Seed: 17, Pattern: workload.Skewed,
	}, 4, 64)
	for _, k := range workerCounts {
		t.Run(string(rune('0'+k)), func(t *testing.T) {
			e := New(prog, Config{
				Workers: k, RecordOutputs: true, RecordAccessOrder: true,
			})
			e.Start()
			for i := range arrivals {
				if e.NextID() != int64(i) {
					t.Fatalf("NextID %d before submitting packet %d", e.NextID(), i)
				}
				if !e.Submit(&arrivals[i]) {
					t.Fatalf("Submit of packet %d failed", i)
				}
			}
			res := e.Drain()
			if res.Stalled || res.Completed != int64(len(arrivals)) {
				t.Fatalf("stream: %d of %d completed (stalled=%v)", res.Completed, len(arrivals), res.Stalled)
			}
			if rep := equiv.CheckState(prog, e.FinalRegs(), e.Outputs(), arrivals); !rep.Equivalent {
				t.Fatalf("stream not equivalent to reference:\n%s", rep)
			}
			if !reflect.DeepEqual(equiv.ReferenceOrder(prog, arrivals), e.AccessOrders()) {
				t.Fatal("stream C1 access order diverges from the reference")
			}
		})
	}
}

// seededOwners builds an engine with the given placement seed and returns
// the initial owner assignment of every sharded array.
func seededOwners(t *testing.T, seed int64, k int) [][]int {
	t.Helper()
	prog, err := apps.Synthetic(2, 64, 16) // 64 >= k*4 for k=4
	if err != nil {
		t.Fatal(err)
	}
	e := New(prog, Config{Workers: k, Seed: seed})
	var out [][]int
	for r := range e.def.shard {
		if e.def.shard[r].sharded {
			out = append(out, append([]int(nil), e.def.shard[r].owner...))
		}
	}
	if len(out) == 0 {
		t.Fatal("synthetic program has no sharded arrays")
	}
	return out
}

// TestSeededPlacementDeterminism wires Config.Seed: the same seed must
// reproduce the same initial placement, different seeds must produce
// different ones (size 64 >= k*4), seed 0 must keep plain round-robin, and
// every seeded placement must stay perfectly balanced.
func TestSeededPlacementDeterminism(t *testing.T) {
	const k = 4
	a1 := seededOwners(t, 42, k)
	a2 := seededOwners(t, 42, k)
	if !reflect.DeepEqual(a1, a2) {
		t.Fatalf("same seed produced different placements:\n%v\n%v", a1, a2)
	}
	b := seededOwners(t, 43, k)
	if reflect.DeepEqual(a1, b) {
		t.Fatalf("seeds 42 and 43 produced identical placements: %v", a1)
	}
	rr := seededOwners(t, 0, k)
	for _, owners := range rr {
		for i, o := range owners {
			if o != i%k {
				t.Fatalf("seed 0 placement is not round-robin: owner[%d]=%d", i, o)
			}
		}
	}
	for _, owners := range a1 {
		perWorker := make([]int, k)
		for _, o := range owners {
			perWorker[o]++
		}
		for w := 1; w < k; w++ {
			if perWorker[w] != perWorker[0] {
				t.Fatalf("seeded placement unbalanced: %v", perWorker)
			}
		}
	}
}

// TestSeededPlacementEquivalence makes sure a seeded placement changes only
// the steering geometry, never the function: the differential bar holds.
func TestSeededPlacementEquivalence(t *testing.T) {
	prog, err := apps.Synthetic(2, 64, 16)
	if err != nil {
		t.Fatal(err)
	}
	arrivals := workload.Synthetic(prog, workload.Spec{
		Packets: 2000, Pipelines: 4, Seed: 5, Pattern: workload.Skewed,
	}, 2, 64)
	runChecked(t, prog, arrivals, Config{Workers: 4, Seed: 99})
}

// TestShardMapSnapshot exercises the live placement snapshot while the
// engine is running under churn-heavy remapping (the race detector guards
// the locking discipline) and validates its shape afterwards.
func TestShardMapSnapshot(t *testing.T) {
	prog, err := apps.Synthetic(2, 64, 16)
	if err != nil {
		t.Fatal(err)
	}
	arrivals := workload.Synthetic(prog, workload.Spec{
		Packets: 4000, Pipelines: 4, Seed: 5, Pattern: workload.Skewed, ChurnInterval: 64,
	}, 2, 64)
	e := New(prog, Config{Workers: 4, RemapInterval: 32})
	stop := make(chan struct{})
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
				e.ShardMap()
			}
		}
	}()
	res := e.Run(arrivals)
	close(stop)
	if res.Completed != int64(len(arrivals)) {
		t.Fatalf("%d of %d completed", res.Completed, len(arrivals))
	}
	sm := e.ShardMap()
	if len(sm) != len(prog.Regs) {
		t.Fatalf("shard map covers %d arrays, program has %d", len(sm), len(prog.Regs))
	}
	for _, ent := range sm {
		if ent.Sharded && len(ent.Owners) != prog.Regs[ent.Reg].Size {
			t.Fatalf("r%d: %d owners for size %d", ent.Reg, len(ent.Owners), prog.Regs[ent.Reg].Size)
		}
		if !ent.Sharded && len(ent.Owners) != 1 {
			t.Fatalf("unsharded r%d has %d owners", ent.Reg, len(ent.Owners))
		}
		for _, o := range ent.Owners {
			if o < 0 || o >= 4 {
				t.Fatalf("r%d owned by out-of-range worker %d", ent.Reg, o)
			}
		}
	}
}
