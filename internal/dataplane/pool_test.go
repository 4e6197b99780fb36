package dataplane

import (
	"reflect"
	"testing"
	"time"

	"mp5/internal/apps"
	"mp5/internal/core"
	"mp5/internal/equiv"
	"mp5/internal/ir"
	"mp5/internal/workload"
)

// checkEquivalence holds an already-drained engine to the state and C1
// oracles (the post-run half of runChecked, for tests that drive admission
// themselves).
func checkEquivalence(t *testing.T, prog *ir.Program, e *Engine, arrivals []core.Arrival, workers int) {
	t.Helper()
	if rep := equiv.CheckState(prog, e.FinalRegs(), e.Outputs(), arrivals); !rep.Equivalent {
		t.Fatalf("workers=%d: not equivalent to reference:\n%s", workers, rep)
	}
	want := equiv.ReferenceOrder(prog, arrivals)
	if got := e.AccessOrders(); !reflect.DeepEqual(want, got) {
		t.Fatalf("workers=%d: access orders diverged from reference", workers)
	}
}

// TestRecyclingEquivalence forces heavy packet recycling — a window far
// smaller than the trace, so every packet struct and env is reused dozens
// of times — and holds the run to all three oracles. Under -tags mp5debug
// this doubles as the use-after-recycle detector: recycled packets are
// poisoned, so any stale reference corrupts an oracle loudly.
func TestRecyclingEquivalence(t *testing.T) {
	prog, err := apps.Synthetic(3, 64, 16)
	if err != nil {
		t.Fatal(err)
	}
	arrivals := workload.Synthetic(prog, workload.Spec{Packets: 4000, Pipelines: 4, Seed: 13}, 3, 64)
	for _, workers := range workerCounts {
		runChecked(t, prog, arrivals, Config{Workers: workers, Window: 32})
	}
}

// TestSubmitBatchChunkedEquivalence drives the same trace through
// SubmitBatch at several chunk sizes (including chunk=1 and a chunk larger
// than the window) and checks bit-identical results against the reference —
// chunking must be invisible to all three oracles.
func TestSubmitBatchChunkedEquivalence(t *testing.T) {
	prog, err := apps.Synthetic(4, 64, 16)
	if err != nil {
		t.Fatal(err)
	}
	arrivals := workload.Synthetic(prog, workload.Spec{Packets: 1500, Pipelines: 4, Seed: 14}, 4, 64)
	for _, chunk := range []int{1, 3, 17, 256, 1024} {
		e := New(prog, Config{Workers: 4, Window: 128, RecordOutputs: true, RecordAccessOrder: true, RecordEgressOrder: true})
		e.Start()
		for off := 0; off < len(arrivals); off += chunk {
			end := off + chunk
			if end > len(arrivals) {
				end = len(arrivals)
			}
			if e.SubmitBatch(arrivals[off:end], nil) != end-off {
				t.Fatalf("chunk=%d: engine aborted at offset %d", chunk, off)
			}
		}
		res := e.Drain()
		if res.Stalled || res.Completed != int64(len(arrivals)) {
			t.Fatalf("chunk=%d: %d of %d completed (stalled=%v)", chunk, res.Completed, len(arrivals), res.Stalled)
		}
		checkEquivalence(t, prog, e, arrivals, 4)
	}
}

// TestPoisonOnFree checks the mp5debug build really clobbers recycled
// packets (and that release builds really don't pay for it).
func TestPoisonOnFree(t *testing.T) {
	if !poisonEnabled {
		t.Skip("poison-on-free is compiled out (build with -tags mp5debug)")
	}
	prog, err := apps.Synthetic(1, 8, 16)
	if err != nil {
		t.Fatal(err)
	}
	e := New(prog, Config{Workers: 1})
	p := e.def.getPacket()
	p.id = 42
	p.env.Fields[0] = 7
	e.def.putPacket(p)
	if p.id != -1 {
		t.Fatalf("freed packet id = %d, want poisoned -1", p.id)
	}
	if p.env.Fields[0] == 7 {
		t.Fatal("freed packet fields survived poisoning")
	}
}

// TestRecycleHammer cycles Submit/Drain engines back to back under load —
// with -race this is the pooled-object lifecycle hammer: any packet or env
// observed after recycling shows up as a race or (under mp5debug) as an
// oracle mismatch in the equivalence suites.
func TestRecycleHammer(t *testing.T) {
	prog, err := apps.Synthetic(2, 32, 16)
	if err != nil {
		t.Fatal(err)
	}
	arrivals := workload.Synthetic(prog, workload.Spec{Packets: 600, Pipelines: 2, Seed: 17}, 2, 32)
	for round := 0; round < 8; round++ {
		e := New(prog, Config{Workers: 2, Window: 16, StallTimeout: 10 * time.Second})
		e.Start()
		for i := range arrivals {
			if !e.Submit(&arrivals[i]) {
				t.Fatalf("round %d: engine aborted", round)
			}
		}
		res := e.Drain()
		if res.Stalled || res.Completed != int64(len(arrivals)) {
			t.Fatalf("round %d: %d of %d completed (stalled=%v)", round, res.Completed, len(arrivals), res.Stalled)
		}
	}
}
