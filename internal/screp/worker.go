package screp

import (
	"sync/atomic"
	"time"

	"mp5/internal/banzai"
	"mp5/internal/dataplane"
	"mp5/internal/ir"
	"mp5/internal/ir/bytecode"
)

// packet is one in-flight packet. Owned by exactly one goroutine at a
// time (the admitter, then its executing replica), handed off over the
// mailbox channel — so none of its fields need locking.
type packet struct {
	id    int64 // the global sequence number; executor = id mod k
	env   *ir.Env
	start time.Time
	span  *dataplane.Span // nil for unsampled packets
}

// worker is one replica mapped onto one goroutine: a full private
// register file, a private VM, and a replay frontier. It executes the
// packets whose sequence number is congruent to its id mod k and replays
// everyone else's write deltas in sequence order. Its mailbox and egress
// records live in the embedded shell lane.
type worker struct {
	*dataplane.Lane[packet]
	id int
	e  *Engine
	// regs is this replica's full private copy of all register state; vm
	// its private bytecode VM (nil under Config.Interpret).
	regs *banzai.RegFile
	vm   *bytecode.VM
	// applied is the replay frontier: every delta below it has been
	// applied to regs (private; appliedA mirrors it for gauges).
	applied int64
	// seen dedups the order log per (reg, clamped idx) per stage — the
	// same granularity the banzai reference and the sharded engine use.
	// dirtySeen/dirty accumulate the packet's written slots across its
	// whole stateful span (the delta to publish). obsID carries the
	// current packet's id to the bound observer.
	seen      map[[2]int]bool
	dirtySeen map[[2]int]bool
	dirty     [][2]int
	writeBuf  []regWrite
	obsID     int64
	obs       func(reg int, idx int64, write bool)
	// deltasN/replayedN/waitNs are worker-local run counters (summed at
	// result time); the atomics mirror the live values for ReplicaStats.
	deltasN      int64
	replayedN    int64
	waitNs       int64
	executedN    atomic.Int64
	appliedA     atomic.Int64
	replayWaitNs atomic.Int64
}

func newWorker(e *Engine, id int) *worker {
	w := &worker{
		Lane:      e.Lane(id),
		id:        id,
		e:         e,
		regs:      banzai.NewRegFile(e.prog),
		seen:      make(map[[2]int]bool),
		dirtySeen: make(map[[2]int]bool),
	}
	if e.bc != nil {
		w.vm = bytecode.NewVM(e.bc)
	}
	w.obs = w.observe
	return w
}

// run is the replica loop: drain the mailbox (opportunistically first),
// process each packet to completion, and exit on quit (drained stream) or
// abort (watchdog). Packets arrive in sequence order per worker — the
// admitter is serial and the channel is FIFO — which the replay frontier
// relies on.
func (w *worker) run() {
	for {
		m, ok := w.TryRecv()
		if !ok {
			if m, ok = w.Recv(); !ok {
				return
			}
		}
		if !w.handle(m) {
			return
		}
	}
}

// handle processes one mailbox transfer; false means the engine aborted
// mid-packet (a replay wait observed the abort) and the loop should exit.
func (w *worker) handle(m dataplane.Msg[packet]) bool {
	if m.Batch != nil {
		for _, p := range m.Batch.Items {
			if p.span != nil {
				p.span.Advance(dataplane.StageCrossbar, w.id)
			}
			if !w.process(p) {
				return false // dying engine: remaining packets are abandoned
			}
		}
		w.e.PutBatch(m.Batch)
		return true
	}
	if m.P.span != nil {
		m.P.span.Advance(dataplane.StageCrossbar, w.id)
	}
	return w.process(m.P)
}

// process runs one packet through the full stage program on this replica:
// the stateless head executes immediately, the stateful span waits for
// (and applies) every earlier packet's delta, executes with the access
// observer bound, publishes its own delta, and the stateless tail runs
// after — outside the serialized region. Returns false when the engine
// aborted during the replay wait.
func (w *worker) process(p *packet) bool {
	e := w.e
	w.executedN.Add(1)
	first, last := e.firstStateful, e.lastStateful
	if last < 0 {
		// Stateless program: a pure round-robin spray — no replay, no
		// publication, replicas never diverge.
		for si := range e.prog.Stages {
			w.execStage(si, p.env)
		}
		w.egress(p)
		return true
	}
	for si := 0; si < first; si++ {
		w.execStage(si, p.env)
	}
	if p.span != nil {
		p.span.Advance(dataplane.StageExec, w.id)
	}
	if !w.replayTo(p.id) {
		return false // abort while waiting on an unpublished delta
	}
	if p.span != nil {
		p.span.Advance(dataplane.StageReplayWait, w.id)
	}
	// The serialized stateful span: every delta below p.id is applied, so
	// this replica's register state is exactly the single-pipeline state
	// at p.id's arrival. Stages execute with the observer attached on
	// stateful stages (order log + dirty-slot capture); interleaved
	// stateless stages run plain.
	w.obsID = p.id
	clear(w.dirtySeen)
	w.dirty = w.dirty[:0]
	for si := first; si <= last; si++ {
		if e.stateful[si] {
			clear(w.seen)
			w.execStageObserved(si, p.env)
		} else {
			w.execStage(si, p.env)
		}
	}
	// Publish the delta: the final value of every slot the packet wrote.
	// Packets that wrote nothing (false predicates) publish an empty
	// delta — the sequence chain must stay dense.
	w.writeBuf = w.writeBuf[:0]
	for _, dk := range w.dirty {
		w.writeBuf = append(w.writeBuf, regWrite{reg: dk[0], idx: dk[1], val: w.regs.Array(dk[0])[dk[1]]})
	}
	e.ring.publish(p.id, w.writeBuf)
	e.frontier.Store(p.id + 1)
	w.applied = p.id + 1 // own writes are already in the replica
	w.appliedA.Store(w.applied)
	w.deltasN++
	e.met.Deltas.Inc()
	for si := last + 1; si < len(e.prog.Stages); si++ {
		w.execStage(si, p.env)
	}
	w.egress(p)
	return true
}

// replayTo applies every published delta below seq to this replica,
// waiting (via the ring) for any not yet published. Returns false when
// the engine aborted during a wait.
func (w *worker) replayTo(seq int64) bool {
	applied := w.applied
	if applied >= seq {
		return true
	}
	var replayed int64
	for t := applied; t < seq; t++ {
		en := w.e.ring.waitFor(t, w.e.Aborted(), &w.waitNs)
		if en == nil {
			w.replayWaitNs.Store(w.waitNs)
			return false
		}
		for _, wr := range en.writes {
			w.regs.Array(wr.reg)[wr.idx] = wr.val
		}
		replayed += int64(len(en.writes))
	}
	w.applied = seq
	w.appliedA.Store(seq)
	w.replayWaitNs.Store(w.waitNs)
	if replayed > 0 {
		w.replayedN += replayed
		w.e.met.ReplayedWrites.Add(replayed)
	}
	return true
}

// observe is the access observer bound once at construction: it runs for
// every effectively-executed stateful instruction (predicate already
// true) inside the serialized span. Reads and writes feed the shared C1
// order log (deduped per slot per stage, matching the reference);
// writes additionally mark the slot dirty for the packet's delta.
func (w *worker) observe(reg int, idx int64, write bool) {
	ci := banzai.ClampIndex(int(idx), w.e.prog.Regs[reg].Size)
	dk := [2]int{reg, ci}
	if write && !w.dirtySeen[dk] {
		w.dirtySeen[dk] = true
		w.dirty = append(w.dirty, dk)
	}
	if w.e.orders == nil || w.seen[dk] {
		return
	}
	w.seen[dk] = true
	w.e.orders[dk] = append(w.e.orders[dk], w.obsID)
}

// execStage runs stage si through the active executor.
func (w *worker) execStage(si int, env *ir.Env) {
	if w.vm != nil {
		if err := w.vm.ExecStage(&w.e.bc.Stages[si], env, w.regs); err != nil {
			panic("screp: " + err.Error()) // compiled code is never corrupt
		}
		return
	}
	ir.ExecStage(&w.e.prog.Stages[si], env, w.regs)
}

// execStageObserved runs stage si with the C1 access observer attached.
func (w *worker) execStageObserved(si int, env *ir.Env) {
	if w.vm != nil {
		if err := w.vm.ExecStageObserved(&w.e.bc.Stages[si], env, w.regs, w.obs); err != nil {
			panic("screp: " + err.Error())
		}
		return
	}
	ir.ExecStageObserved(&w.e.prog.Stages[si], env, w.regs, w.obs)
}

// egress completes the packet: the lane records it (outputs, egress
// order, latency, OnEgress, span), then the packet is recycled before its
// window token is returned.
func (w *worker) egress(p *packet) {
	w.Egress(p.id, p.env.Fields, p.start, p.span)
	p.span = nil // the tracer owns (and recycles) the span now
	w.e.free.Put(p)
	w.e.Complete()
}
