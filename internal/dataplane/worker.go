package dataplane

import (
	"fmt"
	"sync/atomic"
	"time"

	"mp5/internal/banzai"
	"mp5/internal/ir"
)

// packet is one in-flight packet: its execution environment, its resolved
// visit plan, and its progress through the stage sequence. A packet is
// owned by exactly one goroutine at a time (the admitter, then whichever
// worker holds it), handed off over mailbox channels — so none of its
// fields need locking.
type packet struct {
	id int64
	// h is the handle (program namespace) the packet was admitted under:
	// workers reach the program, its per-worker register files/VMs, and its
	// quota exclusively through the packet, so mixed-tenant traffic needs no
	// per-worker program lookup and the mailbox handoff publishes a
	// freshly-added handle to the worker (hot swap).
	h   *Handle
	env *ir.Env
	// visits is the admission-time resolution of every stateful stage the
	// packet will visit; vi indexes the next unperformed one.
	visits []visit
	vi     int
	// nextStage is the next stage to execute (resolution stages already
	// ran on the admitter).
	nextStage int
	start     time.Time
	// span is the packet's wire-to-wire trace (nil for unsampled packets).
	// Packet-owned like every other field, so stamps never lock.
	span *Span
}

// visit is one resolved stateful stage visit: the stage, the worker owning
// every slot the stage may touch, and the slots' ticket queues.
type visit struct {
	stage int
	pipe  int
	slots []slotRef
}

// slotRef pairs a slot's identity with its ticket queue so workers never
// consult the (admitter-owned) placement tables.
type slotRef struct {
	key slotKey
	st  *slotState
}

// worker is one pipeline mapped onto one goroutine. For every loaded
// handle it owns one private register file (h.wregs[w.id]) — only the
// indices the handle's sharding map assigns to it hold the live copy —
// plus the park bench for packets waiting on a head ticket. All pops and
// head tests of a slot happen on the slot's owning worker, so the
// park-or-proceed decision and the promotion after a pop are serialized on
// one goroutine and cannot lose a wakeup. Program state (stages, bytecode,
// VMs, register files) is reached through p.h, never stored on the worker:
// a worker is pure topology. Its mailbox and egress records live in the
// embedded shell lane.
type worker struct {
	*Lane[packet]
	id int
	e  *Engine
	// parked holds packets that reached their visit before holding every
	// head ticket; runnable holds packets promoted by a pop and drained
	// before the next mailbox receive.
	parked   map[int64]*packet
	runnable []*packet
	// xout accumulates outgoing steers per destination worker while this
	// worker drains its mailbox; xoutPend lists the dirty destinations in
	// first-touch order. Flushed (one batch send per destination) whenever
	// the mailbox runs dry — and always before blocking on it, so a
	// buffered packet another worker needs can never be stranded.
	xout     []*Batch[packet]
	xoutPend []int
	// seen and touched are per-visit scratch (dedup of (reg, clamped idx)
	// within one stage execution, and the concrete indices touched per
	// visit slot). touched grows on demand to the widest visit seen —
	// bounded by the largest per-stage slot count across loaded programs,
	// so it stops allocating after warmup.
	seen    map[[2]int]bool
	touched [][]int
	// obs is the access observer bound once at construction (a fresh
	// closure per visit would put one heap allocation back on the hot
	// path); obsP/obsV/obsT carry the current visit's context to it.
	obs  func(reg int, idx int64, write bool)
	obsP *packet
	obsV *visit
	obsT [][]int
	// Live occupancy counters for WorkerStats: parked packets, process
	// invocations, egresses, and (tracer-gated) busy wall time.
	parkedN    atomic.Int64
	processedN atomic.Int64
	egressedN  atomic.Int64
	busyNs     atomic.Int64
}

func newWorker(e *Engine, id int) *worker {
	w := &worker{
		Lane:   e.Lane(id),
		id:     id,
		e:      e,
		xout:   make([]*Batch[packet], e.k),
		parked: make(map[int64]*packet),
		seen:   make(map[[2]int]bool),
	}
	w.obs = w.observe
	return w
}

// run is the worker loop: drain promoted packets first, then opportunistically
// drain the mailbox (coalescing outgoing steers per destination the whole
// while), and only after flushing those steers block on the mailbox until
// the engine shuts down.
func (w *worker) run() {
	for {
		for n := len(w.runnable); n > 0; n = len(w.runnable) {
			p := w.runnable[n-1]
			w.runnable = w.runnable[:n-1]
			if p.span != nil {
				// A promoted packet was parked: the elapsed segment is
				// the D4 ordering wait.
				p.span.Advance(StageTicketWait, w.id)
			}
			w.process(p)
		}
		// Opportunistic non-blocking receive: as long as work keeps
		// arriving, keep processing and let steers pile into xout. Total
		// undelivered messages are bounded by the window, so this cannot
		// starve the flush below.
		if m, ok := w.TryRecv(); ok {
			w.handle(m)
			continue
		}
		// Nothing runnable and the mailbox is dry: flush the coalesced
		// steers (their holders may be the only packets able to make
		// progress), then block.
		w.flushSteers()
		m, ok := w.Recv()
		if !ok {
			return
		}
		w.handle(m)
	}
}

// handle processes one mailbox transfer: a coalesced batch in order (an
// admission chunk or another worker's steer flush), or a single packet.
// Promotions triggered by earlier batch members queue on runnable and
// drain before the next mailbox receive.
func (w *worker) handle(m Msg[packet]) {
	if m.Batch != nil {
		for _, p := range m.Batch.Items {
			if p.span != nil {
				p.span.Advance(StageCrossbar, w.id)
			}
			w.process(p)
		}
		w.e.PutBatch(m.Batch)
		return
	}
	if m.P.span != nil {
		// The elapsed segment is the crossbar hop: mailbox queueing plus
		// transit (initial dispatch or a steer).
		m.P.span.Advance(StageCrossbar, w.id)
	}
	w.process(m.P)
}

// bufferSteer parks an outgoing steer in the per-destination batch instead
// of paying a channel send (and a scheduler wakeup) per packet; flushSteers
// delivers every dirty destination's batch in one send each.
func (w *worker) bufferSteer(dest int, p *packet) {
	b := w.xout[dest]
	if b == nil {
		b = w.e.getBatch()
		w.xout[dest] = b
		w.xoutPend = append(w.xoutPend, dest)
	}
	b.Items = append(b.Items, p)
}

// flushSteers sends every buffered steer batch to its destination worker,
// in first-touch order. Called whenever the mailbox runs dry and always
// before blocking on it. On abort the engine is being torn down — the
// remaining batches are abandoned like any other in-flight packet.
func (w *worker) flushSteers() {
	if len(w.xoutPend) == 0 {
		return
	}
	for _, d := range w.xoutPend {
		b := w.xout[d]
		w.xout[d] = nil
		select {
		case w.e.lanes[d].mailbox <- Msg[packet]{Batch: b}:
		case <-w.e.abort:
			return
		}
	}
	w.xoutPend = w.xoutPend[:0]
}

// process advances the packet as far as it can go on this worker: stateless
// stages execute inline; a visit stage either steers the packet to the
// owning worker (D3), parks it until it holds every head ticket (D4), or
// executes. Reaching the last stage egresses the packet.
func (w *worker) process(p *packet) {
	e := w.e
	w.processedN.Add(1)
	if e.trc != nil {
		// Busy-time accounting rides the tracing switch: two time.Now
		// calls per process invocation are only paid when an operator
		// turned introspection on.
		t0 := time.Now()
		defer func() { w.busyNs.Add(time.Since(t0).Nanoseconds()) }()
	}
	h := p.h
	regs := h.wregs[w.id]
	for p.nextStage < len(h.prog.Stages) {
		var v *visit
		if p.vi < len(p.visits) && p.visits[p.vi].stage == p.nextStage {
			v = &p.visits[p.vi]
		}
		if v == nil {
			// No ticket here: any stateful instruction in this stage has a
			// (resolution-time) false predicate, so executing the stage
			// touches only the packet environment and read-only tables.
			if h.bc != nil {
				if err := h.wvms[w.id].ExecStage(&h.bc.Stages[p.nextStage], p.env, regs); err != nil {
					panic("dataplane: " + err.Error()) // compiled code is never corrupt
				}
			} else {
				ir.ExecStage(&h.prog.Stages[p.nextStage], p.env, regs)
			}
			p.nextStage++
			continue
		}
		if v.pipe != w.id {
			e.steers.Add(1)
			e.met.Steers.Inc()
			if p.span != nil {
				// Close the exec segment before the handoff; the receiving
				// worker stamps the crossbar hop (which now includes any
				// time the packet waits in the coalescing buffer).
				p.span.Advance(StageExec, w.id)
			}
			w.bufferSteer(v.pipe, p)
			return
		}
		if !w.eligible(p, v) {
			w.parked[p.id] = p
			w.parkedN.Add(1)
			e.parks.Add(1)
			e.met.Parks.Inc()
			if p.span != nil {
				// Close the exec segment; the promotion stamp turns the
				// parked time into a ticket_wait segment.
				p.span.Advance(StageExec, w.id)
			}
			return
		}
		w.execVisit(p, v)
		p.vi++
		p.nextStage++
	}
	w.egress(p)
}

// observe is the access observer execVisit attaches to stage execution
// (via the once-bound w.obs): it validates that every concrete register
// access was covered by a ticket and records which indices each slot
// ticket actually covered. Context arrives through obsP/obsV/obsT.
func (w *worker) observe(reg int, idx int64, write bool) {
	p, v, touched := w.obsP, w.obsV, w.obsT
	ci := banzai.ClampIndex(int(idx), p.h.prog.Regs[reg].Size)
	dk := [2]int{reg, ci}
	if w.seen[dk] {
		return
	}
	w.seen[dk] = true
	ri := -1
	for i, ref := range v.slots {
		if ref.key.reg == reg && (ref.key.idx == ci || ref.key.idx < 0) {
			ri = i
			break
		}
	}
	if ri < 0 {
		panic(fmt.Sprintf("dataplane: packet %d accessed r%d[%d] in stage %d without a ticket",
			p.id, reg, ci, v.stage))
	}
	touched[ri] = append(touched[ri], ci)
}

// eligible reports whether p holds the head ticket of every slot of the
// visit. Safe only on the owning worker (w.id == v.pipe).
func (w *worker) eligible(p *packet, v *visit) bool {
	for _, ref := range v.slots {
		if !ref.st.headIs(p.id) {
			return false
		}
	}
	return true
}

// execVisit executes the visit's stage with the access observer attached,
// recording which concrete register indices each slot ticket actually
// covered (predicates evaluate live, so a conservative ticket may cover
// nothing — a wasted visit). It then retires one ticket per slot and
// promotes any parked packet that now holds a head ticket.
func (w *worker) execVisit(p *packet, v *visit) {
	e := w.e
	h := p.h
	clear(w.seen)
	for len(w.touched) < len(v.slots) {
		w.touched = append(w.touched, nil)
	}
	touched := w.touched[:len(v.slots)]
	for i := range touched {
		touched[i] = touched[i][:0]
	}
	w.obsP, w.obsV, w.obsT = p, v, touched
	regs := h.wregs[w.id]
	if h.bc != nil {
		if err := h.wvms[w.id].ExecStageObserved(&h.bc.Stages[v.stage], p.env, regs, w.obs); err != nil {
			panic("dataplane: " + err.Error())
		}
	} else {
		ir.ExecStageObserved(&h.prog.Stages[v.stage], p.env, regs, w.obs)
	}
	w.obsP, w.obsV, w.obsT = nil, nil, nil
	record := e.cfg.RecordAccessOrder
	for i, ref := range v.slots {
		if len(touched[i]) == 0 {
			e.wasted.Add(1)
			e.met.Wasted.Inc()
		}
		next := ref.st.pop(touched[i], p.id, record)
		if next >= 0 {
			if q, ok := w.parked[next]; ok {
				delete(w.parked, next)
				w.parkedN.Add(-1)
				w.runnable = append(w.runnable, q)
			}
		}
	}
}

// egress completes the packet: the lane records it (outputs, egress
// order, latency, OnEgress, span), then the packet is recycled and its
// quota and window tokens returned — in that order, so the admitter can
// only reuse the id slot after the packet is safely on the free list.
func (w *worker) egress(p *packet) {
	w.Egress(p.id, p.env.Fields, p.start, p.span)
	p.span = nil // the tracer owns (and recycles) the span now
	w.egressedN.Add(1)
	h := p.h
	h.putPacket(p)
	if h.quota != nil {
		h.quota.release(1)
	}
	h.completed.Add(1)
	w.e.Complete()
}
