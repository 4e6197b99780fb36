package screp

import (
	"sync/atomic"
	"time"

	"mp5/internal/banzai"
	"mp5/internal/core"
	"mp5/internal/dataplane"
	"mp5/internal/ir"
	"mp5/internal/ir/bytecode"
)

// Engine runs compiled MP5 programs under state-compute replication (see
// the package comment for the model). It embeds the dataplane runtime
// shell, so its surface — Start/Submit/SubmitBatch/Drain plus the post-run
// accessors — is the sharded engine's, and callers (the fuzz driver,
// mp5sim, perfbench) drive either through dataplane.Runner. An Engine is
// single-use: construct with New, drive one trace or stream, then read the
// post-run accessors.
//
// Unlike the sharded engine, screp needs no resolution metadata: with no
// preemptive address resolution there is nothing to resolve at admission,
// so any compiled program runs (TargetMP5 or not).
type Engine struct {
	*dataplane.Shell[packet]

	k    int64
	prog *ir.Program
	// bc is the shared compiled program (nil under Config.Interpret);
	// every worker owns a private VM over it.
	bc *bytecode.Program

	// stateful[si] marks stages with register accesses; first/lastStateful
	// bound the serialized span (-1/-1 on stateless programs, which spray
	// with no replay or publication at all).
	stateful      []bool
	firstStateful int
	lastStateful  int

	workers []*worker
	ring    *deltaLog
	free    *dataplane.FreeList[packet]
	met     *Metrics

	// orders is the shared C1 access-order log, keyed (reg, clamped idx).
	// It needs no lock: appends happen only inside a packet's stateful
	// span, and spans are globally serialized by the publish/replay stamp
	// chain (each release-store of a stamp happens-before the next span's
	// acquire-load), so writes are totally ordered with happens-before
	// edges the race detector also sees. Nil unless RecordAccessOrder.
	orders map[[2]int][]int64

	// frontier is the count of published deltas (highest published seq+1)
	// — with per-worker applied counters it yields the live replication
	// lag gauges.
	frontier atomic.Int64
}

// New builds a replication engine for prog.
func New(prog *ir.Program, cfg Config) *Engine {
	e := &Engine{prog: prog, firstStateful: -1, lastStateful: -1}
	e.Shell = dataplane.NewShell(cfg, dataplane.Policy[packet]{
		Work:    func(w int) { e.workers[w].run() },
		Admit:   func(arrs []core.Arrival) { e.SubmitBatch(arrs, nil) },
		Retire:  e.retire,
		Drained: e.converge,
		Count:   e.count,
	})
	cfg = e.Config()
	e.k = int64(cfg.Workers)
	e.met = e.Metrics()
	e.stateful = make([]bool, len(prog.Stages))
	for i := range prog.Stages {
		if prog.Stages[i].Stateful() {
			e.stateful[i] = true
			if e.firstStateful < 0 {
				e.firstStateful = i
			}
			e.lastStateful = i
		}
	}
	if !cfg.Interpret {
		e.bc = bytecode.MustCompile(prog)
	}
	if cfg.RecordAccessOrder {
		e.orders = make(map[[2]int][]int64)
	}
	e.ring = newDeltaLog(cfg.Workers)
	e.free = e.NewFreeList()
	for i := 0; i < cfg.Workers; i++ {
		e.workers = append(e.workers, newWorker(e, i))
	}
	return e
}

// Submit admits one packet: block until the admission window has room,
// assign the next sequence number, and spray it to worker seq mod k — no
// resolution stages, no tickets, no steering decision. Returns false when
// the engine aborted. Admitter-serial.
func (e *Engine) Submit(a *core.Arrival) bool { return e.SubmitTraced(a, nil) }

// SubmitTraced is Submit for a sampled packet: sp rides the packet and
// accrues window-wait, admit, crossbar, exec, replay-wait, and egress
// segments until the tracer collects it at egress. A nil sp is a plain
// Submit.
func (e *Engine) SubmitTraced(a *core.Arrival, sp *dataplane.Span) bool {
	select {
	case <-e.Aborted():
		return false // dead engine: refuse before consuming a sequence number
	default:
	}
	if e.AcquireWindow(1) == 0 {
		return false
	}
	id := e.NextID()
	if sp != nil {
		sp.Advance(dataplane.StageWindowWait, -1)
		sp.ID = id
	}
	p := e.prepare(id, a)
	e.Sequence(1)
	if sp != nil {
		sp.Advance(dataplane.StageAdmit, -1)
		p.span = sp
	}
	// A retired packet leaves a gap in the sequence chain; retirement only
	// happens on a dead engine whose replicas are exiting.
	return e.Send(int(id%e.k), p)
}

// SubmitBatch admits a run of packets, amortizing the per-packet costs:
// one window acquisition per chunk and one mailbox send per destination
// worker per chunk (round-robin spray keeps each worker's members in
// sequence order inside its batch). spans is either nil or parallel to
// arrs. Returns how many packets were admitted; fewer than len(arrs)
// means the engine aborted. Admitter-serial, like Submit.
func (e *Engine) SubmitBatch(arrs []core.Arrival, spans []*dataplane.Span) int {
	admitted := 0
	for admitted < len(arrs) {
		select {
		case <-e.Aborted():
			return admitted
		default:
		}
		base := e.NextID()
		got := int(e.AcquireWindow(int64(len(arrs) - admitted)))
		if got == 0 {
			return admitted
		}
		for i := 0; i < got; i++ {
			a := &arrs[admitted+i]
			id := base + int64(i)
			var sp *dataplane.Span
			if spans != nil {
				sp = spans[admitted+i]
			}
			if sp != nil {
				sp.Advance(dataplane.StageWindowWait, -1)
				sp.ID = id
			}
			p := e.prepare(id, a)
			if sp != nil {
				sp.Advance(dataplane.StageAdmit, -1)
				p.span = sp
			}
			e.Stage(int(id%e.k), p)
		}
		e.Sequence(int64(got))
		admitted += got
		if !e.Flush() {
			return admitted
		}
	}
	return admitted
}

// retire is the replication Policy.Retire: recycle an undispatched packet
// (the shell returns its window token).
func (e *Engine) retire(p *packet) {
	p.span = nil
	e.free.Put(p)
}

// prepare readies one packet on the admitter: recycle or build a packet
// and reset its env. The whole admission cost — no resolution stages, no
// ticket issue — which is the replication strategy's selling point.
func (e *Engine) prepare(id int64, a *core.Arrival) *packet {
	p := e.free.Get()
	if p == nil {
		p = &packet{env: ir.NewEnv(e.prog)}
	}
	p.id = id
	p.env.ResetFor(a.Fields)
	p.span = nil
	p.start = time.Now()
	e.met.Admitted.Inc()
	return p
}

// converge replays every replica to the final sequence number, after the
// workers joined. Safe without waiting: every packet egressed, so every
// delta up to total is published, and the ring still holds every entry a
// lagging replica needs — a worker's last executed packet had a sequence
// number within k of total (round-robin), so its replay frontier is
// already past total-k, and entries are only overwritten a full ring lap
// (cap > k+1) later.
func (e *Engine) converge(total int64) {
	if e.lastStateful < 0 {
		return // stateless program: replicas never diverged
	}
	for _, w := range e.workers {
		w.replayTo(total)
	}
}

// count is the replication Policy.Count: the deltas published and the
// writes replayed across all replicas.
func (e *Engine) count(res *Result) {
	for _, w := range e.workers {
		res.DeltasPublished += w.deltasN
		res.WritesReplayed += w.replayedN
	}
}

// FinalRegs returns the final register state. After a clean Drain every
// replica has converged to bit-identical state, so replica 0's register
// file is THE final state (ReplicaRegs exposes the others; the
// convergence test asserts they agree).
func (e *Engine) FinalRegs() [][]int64 { return e.workers[0].regs.Snapshot() }

// ReplicaRegs returns worker i's private register file snapshot — equal
// across i after a clean Drain, which is exactly what the replica-
// convergence test asserts. Only valid after Drain.
func (e *Engine) ReplicaRegs(i int) [][]int64 { return e.workers[i].regs.Snapshot() }

// AccessOrders returns the per-slot effective access order in packet ids,
// keyed like the simulator's EvAccess stream and banzai's indexed log
// ("r<reg>[<idx>]") — directly comparable to equiv.ReferenceOrder. Only
// valid after Run/Drain, with Config.RecordAccessOrder set.
func (e *Engine) AccessOrders() map[string][]int64 {
	out := make(map[string][]int64, len(e.orders))
	for dk, seq := range e.orders {
		out[banzai.AccessKey(dk[0], dk[1])] = seq
	}
	return out
}

// ReplicaStats snapshots every replica's live replication gauges: how far
// each has executed and applied, how many published deltas it still has
// to replay (Lag — the pending replay depth), and its cumulative replay
// wait. Safe from any goroutine while the engine runs.
func (e *Engine) ReplicaStats() []ReplicaStat {
	front := e.frontier.Load()
	out := make([]ReplicaStat, len(e.workers))
	for i, w := range e.workers {
		ap := w.appliedA.Load()
		lag := front - ap
		if lag < 0 {
			lag = 0
		}
		out[i] = ReplicaStat{
			ID:           i,
			Executed:     w.executedN.Load(),
			Applied:      ap,
			Lag:          lag,
			ReplayWaitNs: w.replayWaitNs.Load(),
		}
	}
	return out
}
