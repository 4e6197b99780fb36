package dataplane_test

// Conformance of the runtime shell under both state policies: every test
// here ranges over shellEngines, so the sharded engine and the replicated
// engine (internal/screp) are held to the same lifecycle, admission and
// egress contract.

import (
	"runtime/debug"
	"testing"
	"time"

	"mp5/internal/apps"
	"mp5/internal/core"
	"mp5/internal/dataplane"
	"mp5/internal/equiv"
	"mp5/internal/ir"
	"mp5/internal/screp"
	"mp5/internal/workload"
)

// shellEngine is what the conformance tests need from an engine: the
// shared Runner surface plus the shell's live accessors.
type shellEngine interface {
	dataplane.Runner
	Stalled() bool
	Submitted() int64
	Completed() int64
	WindowInUse() int
}

// shellHooks are the white-box shell hooks bound to one engine.
type shellHooks struct {
	abortBeforeDispatch func()
	wedgeFirstRecv      func()
	freePackets         func() int
}

func hooksOf[P any](s *dataplane.Shell[P]) shellHooks {
	return shellHooks{
		abortBeforeDispatch: func() { dataplane.AbortBeforeDispatch(s) },
		wedgeFirstRecv:      func() { dataplane.WedgeFirstRecv(s) },
		freePackets:         func() int { return dataplane.FreePackets(s) },
	}
}

// shellEngines is the table every conformance test ranges over.
var shellEngines = []struct {
	name string
	new  func(prog *ir.Program, cfg dataplane.Config) (shellEngine, shellHooks)
}{
	{"sharded", func(prog *ir.Program, cfg dataplane.Config) (shellEngine, shellHooks) {
		e := dataplane.New(prog, cfg)
		return e, hooksOf(e.Shell)
	}},
	{"screp", func(prog *ir.Program, cfg dataplane.Config) (shellEngine, shellHooks) {
		e := screp.New(prog, cfg)
		return e, hooksOf(e.Shell)
	}},
}

func synthetic(t *testing.T, regs, size, packets int, seed int64) (*ir.Program, []core.Arrival) {
	t.Helper()
	prog, err := apps.Synthetic(regs, size, 16)
	if err != nil {
		t.Fatal(err)
	}
	return prog, workload.Synthetic(prog, workload.Spec{Packets: packets, Pipelines: 2, Seed: seed}, regs, size)
}

// checkLeaks asserts an aborted admission left nothing behind: no window
// token, every packet back on a free list, and (sharded) no ticket.
func checkLeaks(t *testing.T, e shellEngine, h shellHooks, packets int) {
	t.Helper()
	if got := e.WindowInUse(); got != 0 {
		t.Fatalf("abort leaked %d window tokens", got)
	}
	if got := h.freePackets(); got != packets {
		t.Fatalf("abort recycled %d of %d packets", got, packets)
	}
	if dp, ok := e.(*dataplane.Engine); ok {
		if pend, _ := dp.TicketDepths(); pend != 0 {
			t.Fatalf("abort leaked %d tickets", pend)
		}
	}
}

// TestStreamingIdleIsNotStall checks the watchdog's streaming contract: a
// traffic gap longer than StallTimeout with nothing in flight must not trip
// the stall abort, and the stream must keep accepting packets afterwards.
func TestStreamingIdleIsNotStall(t *testing.T) {
	prog, arrivals := synthetic(t, 2, 16, 200, 3)
	for _, c := range shellEngines {
		t.Run(c.name, func(t *testing.T) {
			e, _ := c.new(prog, dataplane.Config{Workers: 2, StallTimeout: 20 * time.Millisecond, RecordOutputs: true})
			e.Start()
			half := len(arrivals) / 2
			for i := 0; i < half; i++ {
				if !e.Submit(&arrivals[i]) {
					t.Fatalf("Submit of packet %d failed", i)
				}
			}
			// Let the first half fully egress, then sit idle well past the
			// stall timeout: the watchdog must treat the empty stream as
			// healthy.
			deadline := time.Now().Add(2 * time.Second)
			for e.Completed() != int64(half) && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			time.Sleep(100 * time.Millisecond)
			if e.Stalled() {
				t.Fatal("watchdog declared an idle stream stalled")
			}
			for i := half; i < len(arrivals); i++ {
				if !e.Submit(&arrivals[i]) {
					t.Fatalf("Submit of packet %d after the idle gap failed", i)
				}
			}
			res := e.Drain()
			if res.Stalled || res.Completed != int64(len(arrivals)) {
				t.Fatalf("after idle gap: %d of %d completed (stalled=%v)", res.Completed, len(arrivals), res.Stalled)
			}
			if rep := equiv.CheckState(prog, e.FinalRegs(), e.Outputs(), arrivals); !rep.Equivalent {
				t.Fatalf("not equivalent after idle gap:\n%s", rep)
			}
		})
	}
}

// TestDrainWithoutStart covers the degenerate lifecycle: an engine that was
// never started drains to an empty result instead of hanging or panicking.
func TestDrainWithoutStart(t *testing.T) {
	prog, _ := synthetic(t, 1, 8, 0, 1)
	for _, c := range shellEngines {
		t.Run(c.name, func(t *testing.T) {
			e, _ := c.new(prog, dataplane.Config{Workers: 2})
			if res := e.Drain(); res.Injected != 0 || res.Completed != 0 || res.Stalled {
				t.Fatalf("unstarted drain: %+v", res)
			}
		})
	}
}

// TestStartTwicePanics pins the single-use contract: a second Start must
// panic, and the engine must still drain cleanly afterwards.
func TestStartTwicePanics(t *testing.T) {
	prog, _ := synthetic(t, 1, 8, 0, 1)
	for _, c := range shellEngines {
		t.Run(c.name, func(t *testing.T) {
			e, _ := c.new(prog, dataplane.Config{Workers: 2})
			e.Start()
			func() {
				defer func() {
					if recover() == nil {
						t.Fatal("second Start did not panic")
					}
				}()
				e.Start()
			}()
			if res := e.Drain(); res.Stalled || res.Injected != 0 {
				t.Fatalf("drain after a double Start: %+v", res)
			}
		})
	}
}

// TestOnEgressHook checks the egress callback: every admitted id is
// reported exactly once.
func TestOnEgressHook(t *testing.T) {
	prog, arrivals := synthetic(t, 2, 32, 1000, 8)
	for _, c := range shellEngines {
		t.Run(c.name, func(t *testing.T) {
			seen := make([]int32, len(arrivals))
			e, _ := c.new(prog, dataplane.Config{Workers: 4, OnEgress: func(id int64) { seen[id]++ }})
			if res := e.Run(arrivals); res.Completed != int64(len(arrivals)) {
				t.Fatalf("%d of %d completed", res.Completed, len(arrivals))
			}
			for id, n := range seen {
				if n != 1 {
					t.Fatalf("packet %d egressed %d times", id, n)
				}
			}
		})
	}
}

// TestSubmitAbortRetiresTickets kills the engine between sequencing (and,
// sharded, ticketing) and dispatch: the aborted Submit must return its
// window token and recycle its packet (sharded: cancel its tickets), and a
// dead engine must refuse further admissions without consuming ids.
func TestSubmitAbortRetiresTickets(t *testing.T) {
	prog, arrivals := synthetic(t, 2, 16, 4, 15)
	for _, c := range shellEngines {
		t.Run(c.name, func(t *testing.T) {
			e, h := c.new(prog, dataplane.Config{Workers: 2, Window: 8})
			e.Start()
			h.abortBeforeDispatch()
			if e.Submit(&arrivals[0]) {
				t.Fatal("Submit succeeded on an engine that aborted mid-admission")
			}
			checkLeaks(t, e, h, 1)
			before := e.Submitted()
			if e.Submit(&arrivals[1]) {
				t.Fatal("Submit succeeded on a dead engine")
			}
			if e.Submitted() != before {
				t.Fatal("dead-engine Submit consumed a packet id")
			}
			if res := e.Drain(); res.Completed != 0 {
				t.Fatalf("retired packets egressed: completed=%d", res.Completed)
			}
		})
	}
}

// TestSubmitBatchAbortRetiresTickets is the batched twin: a sequenced
// chunk whose dispatch finds the engine dead must be retired wholesale.
func TestSubmitBatchAbortRetiresTickets(t *testing.T) {
	const n = 8
	prog, arrivals := synthetic(t, 2, 16, n, 16)
	for _, c := range shellEngines {
		t.Run(c.name, func(t *testing.T) {
			e, h := c.new(prog, dataplane.Config{Workers: 2, Window: 16})
			e.Start()
			h.abortBeforeDispatch()
			if got := e.SubmitBatch(arrivals, nil); got != n {
				t.Fatalf("SubmitBatch admitted %d of %d (ids must stay dense even on abort)", got, n)
			}
			checkLeaks(t, e, h, n)
			if res := e.Drain(); res.Completed != 0 {
				t.Fatalf("retired packets egressed: completed=%d", res.Completed)
			}
		})
	}
}

// TestWatchdogDetectsStall wedges a worker's first receive until the
// watchdog fires: the run must abort with Stalled instead of hanging, with
// the admitter cut off at the window. Under replication every replica
// behind the wedged packet spins for its delta, so this also checks that
// the replay spin observes the abort.
func TestWatchdogDetectsStall(t *testing.T) {
	prog, arrivals := synthetic(t, 2, 16, 400, 1)
	for _, c := range shellEngines {
		t.Run(c.name, func(t *testing.T) {
			e, h := c.new(prog, dataplane.Config{Workers: 2, Window: 16, StallTimeout: 50 * time.Millisecond})
			h.wedgeFirstRecv()
			done := make(chan *dataplane.Result, 1)
			go func() { done <- e.Run(arrivals) }()
			select {
			case res := <-done:
				if !res.Stalled || !e.Stalled() {
					t.Fatalf("wedged run did not report a stall: %+v", res)
				}
				if res.Injected >= int64(len(arrivals)) {
					t.Fatalf("stalled run still admitted the whole trace (%d)", res.Injected)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("watchdog never aborted the wedged run")
			}
		})
	}
}

// TestSubmitSteadyStateAllocs is the zero-alloc gate: once the free list
// and every scratch buffer warmed up, a Submit must perform zero heap
// allocations — on the admitter *and* on the workers, since AllocsPerRun
// counts process-wide mallocs.
func TestSubmitSteadyStateAllocs(t *testing.T) {
	if dataplane.RaceEnabled {
		t.Skip("allocation counting is meaningless under -race (the race runtime allocates)")
	}
	prog, err := apps.Synthetic(4, 64, 16)
	if err != nil {
		t.Fatal(err)
	}
	arrivals := workload.Synthetic(prog, workload.Spec{Packets: 2048, Pipelines: 2, Seed: 11}, 4, 64)
	for _, c := range shellEngines {
		t.Run(c.name, func(t *testing.T) {
			e, _ := c.new(prog, dataplane.Config{Workers: 2, Window: 64})
			e.Start()
			// Warmup: populate the free list, grow every buffer to its
			// steady capacity (and, sharded, cross a few remap boundaries).
			for i := range arrivals {
				if !e.Submit(&arrivals[i]) {
					t.Fatal("engine aborted during warmup")
				}
			}
			i := 0
			avg := testing.AllocsPerRun(500, func() {
				if !e.Submit(&arrivals[i%len(arrivals)]) {
					t.Fatal("engine aborted mid-measurement")
				}
				i++
			})
			if res := e.Drain(); res.Stalled {
				t.Fatalf("engine stalled: %d of %d completed", res.Completed, res.Injected)
			}
			if avg != 0 {
				t.Fatalf("steady-state Submit allocates %v per packet, want 0", avg)
			}
		})
	}
}

// TestSubmitBatchSteadyStateAllocs holds the coalesced path to (almost) the
// same bar: a whole SubmitBatch chunk must not allocate beyond the slack of
// its sync.Pool-backed batch carriers. GC is disabled during the
// measurement so a collection cannot drain the batch pool mid-run.
func TestSubmitBatchSteadyStateAllocs(t *testing.T) {
	if dataplane.RaceEnabled {
		t.Skip("allocation counting is meaningless under -race (the race runtime allocates)")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	prog, err := apps.Synthetic(4, 64, 16)
	if err != nil {
		t.Fatal(err)
	}
	arrivals := workload.Synthetic(prog, workload.Spec{Packets: 2048, Pipelines: 2, Seed: 12}, 4, 64)
	const chunk = 128
	for _, c := range shellEngines {
		t.Run(c.name, func(t *testing.T) {
			e, _ := c.new(prog, dataplane.Config{Workers: 2, Window: 64})
			e.Start()
			for off := 0; off+chunk <= len(arrivals); off += chunk {
				if e.SubmitBatch(arrivals[off:off+chunk], nil) != chunk {
					t.Fatal("engine aborted during warmup")
				}
			}
			avg := testing.AllocsPerRun(100, func() {
				if e.SubmitBatch(arrivals[:chunk], nil) != chunk {
					t.Fatal("engine aborted mid-measurement")
				}
			})
			if res := e.Drain(); res.Stalled {
				t.Fatalf("engine stalled: %d of %d completed", res.Completed, res.Injected)
			}
			// One batch call covers `chunk` packets; allow a couple of stray
			// allocations per call (slot-queue growth on unlucky skew)
			// without letting a per-packet regression (≥ chunk allocs/call)
			// through.
			if avg > 2 {
				t.Fatalf("steady-state SubmitBatch allocates %v per %d-packet batch, want ~0", avg, chunk)
			}
		})
	}
}
