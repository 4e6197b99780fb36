package dataplane

import (
	"sync"
	"sync/atomic"
	"time"

	"mp5/internal/banzai"
	"mp5/internal/core"
	"mp5/internal/ir"
)

// regShard is the admitter's view of one register array's placement: which
// worker owns each index (the live copy) and how often each index was
// resolved in the current remap window. Owned exclusively by the admitter
// goroutine; workers learn placements only through resolved visits.
type regShard struct {
	sharded bool
	size    int
	// owner[i] is the worker holding the live copy of index i; unsharded
	// arrays use owner[0] as the whole-array home (stage mod k, so arrays
	// sharing a stage share a worker, as sharding.New does).
	owner []int
	// count[i] counts resolutions since the last remap (§3.4).
	count []int64
}

// Engine runs compiled MP5 programs on a real goroutine topology under the
// D2 sharding policy (see the package comment for the architecture map).
// The runtime shell it embeds owns the window, the lifecycle, dispatch and
// egress recording; the Engine adds placement, steering and tickets. The
// topology — workers, crossbar mailboxes, the admission-window semaphore —
// is shared; every loaded program gets its own isolated Handle (registers,
// ticket queues, shard map, frame pool, optional admission quota), so one
// engine can serve N tenant programs side by side and hot-add new program
// versions while traffic flows.
//
// It executes either a pre-materialized trace (Run) or an open-ended packet
// stream (Start/Submit/Drain — Run is implemented on top of the streaming
// mode). An Engine is single-use: construct with New (one program) or
// NewMulti+AddProgram, drive one trace or stream, then read the post-run
// accessors. The single-program accessors (Submit, Outputs, FinalRegs,
// AccessOrders, ShardMap, …) operate on the default handle — the first
// program added — so a one-program engine behaves exactly as before the
// multi-tenant refactor.
type Engine struct {
	*Shell[packet]

	workers []*worker

	// hMu guards the handle list: AddProgram publishes (possibly mid-run,
	// from any goroutine — the hot-swap path), the admitter snapshots it
	// for remap, samplers for TicketDepths. def is the first handle added;
	// immutable once set.
	hMu      sync.Mutex
	handles  []*Handle
	hScratch []*Handle // admitter-only remap snapshot buffer
	def      *Handle

	steers atomic.Int64
	wasted atomic.Int64
	parks  atomic.Int64
	// shardMoves and spray are admitter-local (serial).
	shardMoves int64
	spray      int64

	// placeMu guards cross-goroutine snapshots of the owner arrays
	// (ShardMap): remap's rare owner writes take it; the admitter's hot
	// owner reads do not need it (remap runs on the admitter goroutine).
	placeMu sync.Mutex

	// Admitter-only scratch, reused across SubmitBatch chunks and remap
	// passes so the hot path allocates nothing: tkSlots lists the slots
	// with buffered tickets (slotState.pend), remapAgg the per-worker load
	// aggregation.
	tkSlots  []*slotState
	remapAgg []int64
}

// NewMulti builds an engine with no programs loaded. Call AddProgram at
// least once before Start; the first program added becomes the default
// handle behind the single-program API (Submit, Outputs, …).
func NewMulti(cfg Config) *Engine {
	e := &Engine{}
	e.Shell = NewShell(cfg, Policy[packet]{
		Work:   func(w int) { e.workers[w].run() },
		Admit:  func(arrs []core.Arrival) { e.SubmitBatch(arrs, nil) },
		Retire: e.retire,
		Count:  e.count,
	})
	e.remapAgg = make([]int64, e.k)
	for i := 0; i < e.k; i++ {
		e.workers = append(e.workers, newWorker(e, i))
	}
	return e
}

// New builds a single-program engine for prog — NewMulti plus one unlimited
// default handle. The program must carry MP5 resolution metadata (compile
// with TargetMP5): state accesses without resolution stages cannot be
// ticketed preemptively.
func New(prog *ir.Program, cfg Config) *Engine {
	e := NewMulti(cfg)
	e.AddProgram("default", prog, nil)
	return e
}

// AddProgram loads a program onto the engine under its own isolated Handle
// (registers, ticket queues, shard placement, frame pool) with an optional
// admission quota (nil = unlimited). Safe to call while the engine is
// running and serving other handles — the hot-swap path: the handle is
// fully built before it is published, in-flight packets of other handles
// are untouched, and the new handle's state starts from the program's
// declared initial values. The first AddProgram sets the default handle.
func (e *Engine) AddProgram(name string, prog *ir.Program, quota *Quota) *Handle {
	e.hMu.Lock()
	version := len(e.handles)
	e.hMu.Unlock()
	h := newHandle(e, name, version, prog, quota)
	e.hMu.Lock()
	// Re-read under the lock: concurrent AddProgram calls may have raced
	// the unlocked version draw above (versions stay unique either way).
	h.version = len(e.handles)
	e.handles = append(e.handles, h)
	if e.def == nil {
		e.def = h
	}
	e.hMu.Unlock()
	return h
}

// Default returns the default handle (the first program added; nil on an
// empty NewMulti engine).
func (e *Engine) Default() *Handle {
	e.hMu.Lock()
	defer e.hMu.Unlock()
	return e.def
}

// Handles snapshots the loaded handles in registration order (any
// goroutine).
func (e *Engine) Handles() []*Handle {
	e.hMu.Lock()
	defer e.hMu.Unlock()
	return append([]*Handle(nil), e.handles...)
}

// Submit admits one packet on the default handle: block until the admission
// window has room (the live admission-control point), resolve and ticket
// the packet, and dispatch it to its first worker. Returns false when the
// engine aborted (watchdog stall) — the stream is dead and the caller
// should Drain. Admitter-serial: never call Submit concurrently.
func (e *Engine) Submit(a *core.Arrival) bool { return e.SubmitTo(e.def, a, nil) }

// SubmitTraced is Submit for a sampled packet: sp (started by the caller
// at decode — see Tracer.Sample) rides the packet and accrues
// window-wait, admit, crossbar, exec, ticket-wait, and egress segments
// until the tracer collects it at egress. A nil sp is a plain Submit.
func (e *Engine) SubmitTraced(a *core.Arrival, sp *Span) bool { return e.SubmitTo(e.def, a, sp) }

// SubmitTo admits one packet on handle h. On top of Submit's contract it
// enforces h's admission quota: when the tenant's tokens are exhausted the
// packet is shed — counted on the handle, no id consumed, the admit loop
// never blocked — and SubmitTo returns false. Admitter-serial.
func (e *Engine) SubmitTo(h *Handle, a *core.Arrival, sp *Span) bool {
	select {
	case <-e.abort:
		return false // dead engine: refuse before consuming an id
	default:
	}
	if h.quota != nil && h.quota.tryAcquire(1) == 0 {
		h.shed.Add(1)
		e.met.QuotaShed.Inc()
		return false
	}
	if e.AcquireWindow(1) == 0 {
		if h.quota != nil {
			h.quota.release(1)
		}
		return false
	}
	id := e.submitted.Load()
	if sp != nil {
		sp.Advance(StageWindowWait, -1)
		sp.ID = id
	}
	p := e.prepare(h, id, a)
	e.submitted.Add(1)
	if sp != nil {
		sp.Advance(StageAdmit, -1)
		p.span = sp
	}
	for vi := range p.visits {
		for _, ref := range p.visits[vi].slots {
			ref.st.enqueue(id)
		}
	}
	if !e.Send(e.destOf(p), p) {
		return false
	}
	if n := e.submitted.Load(); e.cfg.RemapInterval > 0 && n%int64(e.cfg.RemapInterval) == 0 {
		e.remap()
	}
	return true
}

// SubmitBatch admits a run of packets on the default handle — see
// SubmitBatchTo.
func (e *Engine) SubmitBatch(arrs []core.Arrival, spans []*Span) int {
	return e.SubmitBatchTo(e.def, arrs, spans)
}

// SubmitBatchTo admits a run of packets on handle h, amortizing the
// per-packet costs of SubmitTo across the batch: one window acquisition per
// chunk, one ticket queue lock per touched slot per chunk, and one crossbar
// mailbox send per destination worker per chunk. Ticket order — hence C1 —
// is still exactly arrival order: packets are resolved serially in slice
// order, every ticket of the chunk is enqueued before any packet
// dispatches, and per-slot ticket runs flush in admission order.
//
// spans is either nil or parallel to arrs (nil entries for unsampled
// packets). Returns how many packets were admitted; fewer than len(arrs)
// means either the engine aborted (the run is dead) or h's quota ran out —
// in the quota case the entire unadmitted tail is shed (counted on the
// handle) rather than blocking the admit loop, so the admitted count is
// always a dense prefix of arrs. Admitter-serial, like Submit.
func (e *Engine) SubmitBatchTo(h *Handle, arrs []core.Arrival, spans []*Span) int {
	admitted := 0
	for admitted < len(arrs) {
		select {
		case <-e.abort:
			return admitted
		default:
		}
		base := e.submitted.Load()
		want := int64(len(arrs) - admitted)
		if iv := int64(e.cfg.RemapInterval); iv > 0 {
			// Chunks never straddle a remap boundary, so remap keeps its
			// every-RemapInterval-admissions cadence (and its chance to see
			// drained ticket queues) exactly as under per-packet Submit.
			if until := iv - base%iv; want > until {
				want = until
			}
		}
		if h.quota != nil {
			q := h.quota.tryAcquire(want)
			if q == 0 {
				// Quota exhausted: shed the whole remaining tail. Retrying
				// inside this call would either spin or block the (shared)
				// admit loop on one tenant — exactly what quotas exist to
				// prevent.
				shed := int64(len(arrs) - admitted)
				h.shed.Add(shed)
				e.met.QuotaShed.Add(shed)
				return admitted
			}
			want = q
		}
		got := int(e.AcquireWindow(want))
		if got == 0 {
			if h.quota != nil {
				h.quota.release(want)
			}
			return admitted
		}
		if h.quota != nil && int64(got) < want {
			h.quota.release(want - int64(got))
		}
		for i := 0; i < got; i++ {
			a := &arrs[admitted+i]
			id := base + int64(i)
			var sp *Span
			if spans != nil {
				sp = spans[admitted+i]
			}
			if sp != nil {
				// Batch semantics: the window wait for the whole chunk was
				// paid up front, so later chunk members fold the queueing
				// behind their chunk-mates' admits into window_wait too.
				sp.Advance(StageWindowWait, -1)
				sp.ID = id
			}
			p := e.prepare(h, id, a)
			if sp != nil {
				sp.Advance(StageAdmit, -1)
				p.span = sp
			}
			// Buffer tickets chunk-locally (pend is admitter-owned); the
			// flush below takes each slot's lock once for the whole chunk.
			for vi := range p.visits {
				for _, ref := range p.visits[vi].slots {
					st := ref.st
					if len(st.pend) == 0 {
						e.tkSlots = append(e.tkSlots, st)
					}
					st.pend = append(st.pend, id)
				}
			}
			e.Stage(e.destOf(p), p)
		}
		e.submitted.Store(base + int64(got))
		// Flush every ticket of the chunk before the staged packets
		// dispatch: a dispatched packet must be able to find its own
		// tickets (and park behind earlier ones) the moment it reaches a
		// worker.
		for _, st := range e.tkSlots {
			st.enqueueBatch(st.pend)
			st.pend = st.pend[:0]
		}
		e.tkSlots = e.tkSlots[:0]
		admitted += got
		if !e.Flush() {
			return admitted
		}
		if iv := int64(e.cfg.RemapInterval); iv > 0 && (base+int64(got))%iv == 0 {
			e.remap()
		}
	}
	return admitted
}

// destOf returns the packet's first-hop worker: the owner of its first
// visit, or the D1 spray target for stateless packets (admitter-serial; the
// spray counter is shared across handles, keeping the stateless load
// uniform whatever the tenant mix).
func (e *Engine) destOf(p *packet) int {
	if len(p.visits) > 0 {
		return p.visits[0].pipe
	}
	d := int(e.spray % int64(e.k))
	e.spray++
	return d
}

// retire is the sharded Policy.Retire: cancel an undispatched packet's
// tickets, recycle it, and return its quota token (the shell returns the
// window token).
func (e *Engine) retire(p *packet) {
	for vi := range p.visits {
		for _, ref := range p.visits[vi].slots {
			ref.st.cancel(p.id)
		}
	}
	p.span = nil
	h := p.h
	h.putPacket(p)
	if h.quota != nil {
		h.quota.release(1)
	}
}

// prepare readies one packet on the admitter: take a recycled packet from
// the handle's free list (or build one), reset its env for the new arrival,
// execute the handle's stateless resolution stages, and resolve every state
// access to a (stage, worker, slots) visit list. Ticket issue is the
// caller's job — SubmitTo enqueues directly, SubmitBatchTo buffers and
// flushes per chunk.
func (e *Engine) prepare(h *Handle, id int64, a *core.Arrival) *packet {
	p := h.getPacket()
	p.id = id
	p.env.ResetFor(a.Fields)
	p.visits = p.visits[:0]
	p.vi = 0
	p.span = nil
	p.start = time.Now()
	for si := 0; si < h.prog.ResolutionStages; si++ {
		if h.bc != nil {
			if err := h.admVM.ExecStage(&h.bc.Stages[si], p.env, h.admRegs); err != nil {
				panic("dataplane: " + err.Error()) // compiled code is never corrupt
			}
			continue
		}
		ir.ExecStage(&h.prog.Stages[si], p.env, h.admRegs)
	}
	p.nextStage = h.prog.ResolutionStages
	e.resolve(h, p)
	if h.record {
		h.idSeq = append(h.idSeq, id)
	}
	h.submitted.Add(1)
	e.met.Admitted.Inc()
	return p
}

// resolve performs preemptive address resolution (§3.3) against the
// handle's shard placement: evaluate resolvable predicates, clamp indices,
// look up slot owners, and build the visit list. Same-stage accesses form
// one visit and must co-locate (the code generator guarantees multi-array
// stages hold only unsharded, same-home arrays). Duplicate same-stage
// references to one slot collapse to a single ticket.
func (e *Engine) resolve(h *Handle, p *packet) {
	for stage, bucket := range h.accByStage {
		var v *visit
		for _, ai := range bucket {
			a := &h.prog.Accesses[ai]
			if a.PredResolvable && !a.Pred.IsNone() {
				truth := p.env.Load(a.Pred) != 0
				if truth == a.PredNeg {
					continue // resolved: this access will not happen
				}
			}
			sh := &h.shard[a.Reg]
			key := slotKey{a.Reg, -1}
			pos := 0
			if sh.sharded {
				key.idx = banzai.ClampIndex(int(p.env.Load(a.Idx)), sh.size)
				pos = key.idx
			}
			sh.count[pos]++
			dest := sh.owner[pos]
			if v == nil {
				// Extend in place when the recycled packet's visit array has
				// room: reslicing (rather than appending a fresh struct)
				// keeps each visit's slots capacity from previous lives.
				if n := len(p.visits); n < cap(p.visits) {
					p.visits = p.visits[:n+1]
					v = &p.visits[n]
					v.stage, v.pipe = stage, dest
					v.slots = v.slots[:0]
				} else {
					p.visits = append(p.visits, visit{stage: stage, pipe: dest})
					v = &p.visits[n]
				}
			} else if v.pipe != dest {
				panic("dataplane: co-located accesses resolved to different pipelines")
			}
			dup := false
			for _, ref := range v.slots {
				if ref.key == key {
					dup = true
					break
				}
			}
			if !dup {
				v.slots = append(v.slots, slotRef{key: key, st: h.slots[key]})
			}
		}
	}
}

// remap runs one Figure-6 iteration over every handle (admitter-only). The
// handle list is snapshotted under hMu so a concurrent AddProgram (hot
// swap) neither blocks admission nor tears the iteration.
func (e *Engine) remap() {
	e.hMu.Lock()
	e.hScratch = append(e.hScratch[:0], e.handles...)
	e.hMu.Unlock()
	for _, h := range e.hScratch {
		e.remapHandle(h)
	}
}

// remapHandle runs one Figure-6 iteration per sharded array of one handle:
// find the heaviest (H) and lightest (L) workers by windowed access count,
// pick the hottest index on H counting less than half the gap, and migrate
// it to L — but only if its ticket queue is empty, checked and copied under
// the slot mutex so no in-flight or future access can observe a torn value.
// Window counters reset afterwards.
func (e *Engine) remapHandle(h *Handle) {
	for reg := range h.shard {
		sh := &h.shard[reg]
		if !sh.sharded {
			continue
		}
		agg := e.remapAgg // admitter-only scratch; remap is admitter-only
		for i := range agg {
			agg[i] = 0
		}
		for i, o := range sh.owner {
			agg[o] += sh.count[i]
		}
		hi, lo := 0, 0
		for w := 1; w < e.k; w++ {
			if agg[w] > agg[hi] {
				hi = w
			}
			if agg[w] < agg[lo] {
				lo = w
			}
		}
		if hi != lo && agg[hi] != agg[lo] {
			c := (agg[hi] - agg[lo]) / 2
			best := -1
			for i, o := range sh.owner {
				if o != hi || sh.count[i] >= c || sh.count[i] == 0 {
					continue
				}
				if best < 0 || sh.count[i] > sh.count[best] {
					best = i
				}
			}
			if best >= 0 {
				st := h.slots[slotKey{reg, best}]
				st.mu.Lock()
				if st.head >= len(st.queue) {
					// No pending tickets: nobody is touching (or will
					// touch) the old copy, and the next ticket will be
					// issued after owner[] is updated below — the slot
					// mutex carries the value to the new owner. placeMu
					// publishes the new owner to ShardMap snapshots.
					h.wregs[lo].Array(reg)[best] = h.wregs[hi].Array(reg)[best]
					e.placeMu.Lock()
					sh.owner[best] = lo
					e.placeMu.Unlock()
					e.shardMoves++
					e.met.ShardMoves.Inc()
				}
				st.mu.Unlock()
			}
		}
		for i := range sh.count {
			sh.count[i] = 0
		}
	}
}

// count is the sharded Policy.Count: the steering, ticket and placement
// counters of the run.
func (e *Engine) count(res *Result) {
	res.Steers = e.steers.Load()
	res.Parks = e.parks.Load()
	res.Wasted = e.wasted.Load()
	res.ShardMoves = e.shardMoves
}

// OutputsFor returns handle h's completed packets' final header fields,
// keyed by the handle's dense per-program arrival index (0..n-1 in h's
// admission order) — the shape the single-pipeline reference keys by, so
// each tenant verifies against its own independent reference. Only valid
// after Drain with Config.RecordOutputs set.
func (e *Engine) OutputsFor(h *Handle) map[int64][]int64 {
	all := e.Outputs()
	if all == nil {
		return nil
	}
	out := make(map[int64][]int64, len(h.idSeq))
	for i, gid := range h.idSeq {
		if f, ok := all[gid]; ok {
			out[int64(i)] = f
		}
	}
	return out
}

// FinalRegs returns the default handle's final register state — see
// FinalRegsFor. Only valid after Run/Drain.
func (e *Engine) FinalRegs() [][]int64 { return e.FinalRegsFor(e.def) }

// FinalRegsFor returns handle h's final register state, assembling each
// index from the worker register file owning its live copy. Only valid
// after Drain.
func (e *Engine) FinalRegsFor(h *Handle) [][]int64 {
	out := make([][]int64, len(h.shard))
	for r := range h.shard {
		sh := &h.shard[r]
		a := make([]int64, sh.size)
		if sh.sharded {
			for i := range a {
				a[i] = h.wregs[sh.owner[i]].Array(r)[i]
			}
		} else {
			copy(a, h.wregs[sh.owner[0]].Array(r))
		}
		out[r] = a
	}
	return out
}

// AccessOrders returns the default handle's per-slot effective access
// order in global packet ids, keyed like the simulator's EvAccess stream
// and banzai's indexed log ("r<reg>[<idx>]"). On a single-program engine
// global ids coincide with arrival indices, so this is directly comparable
// to equiv.ReferenceOrder. Only valid after Run/Drain, with
// Config.RecordAccessOrder set. Multi-program engines use AccessOrdersFor.
func (e *Engine) AccessOrders() map[string][]int64 {
	out := make(map[string][]int64)
	for key, st := range e.def.slots {
		for ci, seq := range st.log {
			out[banzai.AccessKey(key.reg, ci)] = seq
		}
	}
	return out
}

// AccessOrdersFor returns handle h's per-slot effective access order with
// every global packet id remapped to the handle's dense per-program arrival
// index — directly comparable to equiv.ReferenceOrder over the handle's own
// admission trace. Only valid after Drain, with Config.RecordAccessOrder
// set.
func (e *Engine) AccessOrdersFor(h *Handle) map[string][]int64 {
	idx := make(map[int64]int64, len(h.idSeq))
	for i, gid := range h.idSeq {
		idx[gid] = int64(i)
	}
	out := make(map[string][]int64)
	for key, st := range h.slots {
		for ci, seq := range st.log {
			m := make([]int64, len(seq))
			for j, gid := range seq {
				m[j] = idx[gid]
			}
			out[banzai.AccessKey(key.reg, ci)] = m
		}
	}
	return out
}

// WorkerStat is one worker's live occupancy/throughput view, in the shape
// the admin plane serves (/stats) and mp5top renders. Mailbox is the
// channel depth (queued crossbar handoffs), Parked the packets waiting on
// head tickets, Processed the process-loop invocations (mailbox receives +
// promotions), Egressed the packets completed on this worker, and BusyNs
// cumulative wall time spent inside the process loop — only accounted
// while a Tracer is attached, 0 otherwise.
type WorkerStat struct {
	ID         int   `json:"id"`
	Mailbox    int   `json:"mailbox"`
	MailboxCap int   `json:"mailbox_cap"`
	Parked     int64 `json:"parked"`
	Processed  int64 `json:"processed"`
	Egressed   int64 `json:"egressed"`
	BusyNs     int64 `json:"busy_ns"`
}

// WorkerStats snapshots every worker's live occupancy counters. Safe from
// any goroutine while the engine runs (all fields are atomics or channel
// lengths).
func (e *Engine) WorkerStats() []WorkerStat {
	out := make([]WorkerStat, e.k)
	for i, w := range e.workers {
		out[i] = WorkerStat{
			ID:         i,
			Mailbox:    len(w.mailbox),
			MailboxCap: cap(w.mailbox),
			Parked:     w.parkedN.Load(),
			Processed:  w.processedN.Load(),
			Egressed:   w.egressedN.Load(),
			BusyNs:     w.busyNs.Load(),
		}
	}
	return out
}

// TicketDepths sums the pending (issued-but-unretired) tickets across
// every slot queue of every handle and reports the deepest single queue —
// the live D4 backlog. It takes each slot's mutex briefly; meant for the
// admin plane's background sampler, not the per-packet path.
func (e *Engine) TicketDepths() (pending, maxDepth int64) {
	for _, h := range e.Handles() {
		p, m := e.ticketDepthsFor(h)
		pending += p
		if m > maxDepth {
			maxDepth = m
		}
	}
	return pending, maxDepth
}

func (e *Engine) ticketDepthsFor(h *Handle) (pending, maxDepth int64) {
	for _, st := range h.slots {
		st.mu.Lock()
		d := int64(len(st.queue) - st.head)
		st.mu.Unlock()
		pending += d
		if d > maxDepth {
			maxDepth = d
		}
	}
	return pending, maxDepth
}

// ShardEntry is one register array's live D2 placement, in the shape the
// admin plane serves as JSON.
type ShardEntry struct {
	Reg     int    `json:"reg"`
	Name    string `json:"name"`
	Sharded bool   `json:"sharded"`
	// Owners[i] is the worker holding the live copy of index i; an
	// unsharded array has a single element, the whole-array home.
	Owners []int `json:"owners"`
}

// ShardMap snapshots the default handle's live index→worker ownership —
// see ShardMapFor.
func (e *Engine) ShardMap() []ShardEntry { return e.ShardMapFor(e.def) }

// ShardMapFor snapshots the live index→worker ownership of every register
// array of handle h. Safe from any goroutine while the engine runs: remap
// publishes owner changes under the same lock the snapshot takes.
func (e *Engine) ShardMapFor(h *Handle) []ShardEntry {
	out := make([]ShardEntry, len(h.shard))
	e.placeMu.Lock()
	defer e.placeMu.Unlock()
	for r := range h.shard {
		out[r] = ShardEntry{
			Reg:     r,
			Name:    h.prog.Regs[r].Name,
			Sharded: h.shard[r].sharded,
			Owners:  append([]int(nil), h.shard[r].owner...),
		}
	}
	return out
}
