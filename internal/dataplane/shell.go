package dataplane

// The runtime shell: everything a concurrent MP5 engine needs around its
// state policy. Two policies run inside it — this package's D2 index
// sharding (Engine) and internal/screp's state-compute replication — and
// they differ only in where state lives and how C1 order is enforced. The
// shell owns the rest:
//
//   - the admission window (one token per in-flight packet),
//   - the lifecycle: Run, Start, Drain, quit/abort/done and the watchdog,
//   - dispatch: per-worker mailboxes, coalesced batches and the batch pool,
//   - egress recording: outputs, egress order, latency histograms,
//     OnEgress, span finish and completion,
//   - the Result and the accessors both engines share.
//
// A policy embeds *Shell[P] (P is its packet type) and plugs in through
// Policy, whose hooks run per worker, per drain, or on the abort path —
// never per packet. Per-packet shell calls (AcquireWindow, Stage, Flush,
// Send, Lane.Egress, Complete) are plain methods on the concrete
// instantiation: no interface or closure call sits on the hot path.

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mp5/internal/core"
	"mp5/internal/stats"
)

// Latency histogram shape shared by the per-worker histograms and the
// merged drain-time result: microseconds in [0, 65536) at 8 µs resolution.
const (
	latLo      = 0
	latHi      = 1 << 16
	latBuckets = 1 << 13
)

// Runner is the surface both engines share, whichever state policy runs
// inside the shell: the differential fuzz driver and mp5sim drive either
// engine through it.
type Runner interface {
	Start()
	Submit(a *core.Arrival) bool
	SubmitBatch(arrs []core.Arrival, spans []*Span) int
	Run(arrivals []core.Arrival) *Result
	Drain() *Result
	FinalRegs() [][]int64
	Outputs() map[int64][]int64
	AccessOrders() map[string][]int64
}

// Msg is one crossbar mailbox transfer: a single packet (Send) or a
// coalesced batch — an admission chunk's per-worker run (Stage/Flush) or a
// worker's accumulated steers for one destination. A batch occupies one
// mailbox slot for many packets, so coalescing only strengthens the
// mailboxes-never-fill invariant.
type Msg[P any] struct {
	P     *P
	Batch *Batch[P]
}

// Batch is the recycled carrier behind coalesced sends (see PutBatch).
type Batch[P any] struct {
	Items []*P
}

// egRec is one worker-private egress record: seq is drawn from the shell's
// global atomic counter at egress time, so sorting the merged records by
// seq reconstructs the wall-clock egress order without a global lock on the
// egress path.
type egRec struct {
	seq int64
	id  int64
}

// Policy is what a state policy plugs into the shell. None of its hooks
// runs per packet.
type Policy[P any] struct {
	// Work is worker w's loop, run on its own goroutine from Start; it
	// returns once Lane.Recv reports the shell quit or aborted.
	Work func(w int)
	// Admit feeds Run's whole trace through the policy's batched admission.
	Admit func(arrs []core.Arrival)
	// Retire un-admits a packet the shell could not dispatch because the
	// engine aborted: undo the policy's admission state and recycle the
	// packet. The shell returns the window token afterwards.
	Retire func(p *P)
	// Drained, when non-nil, runs on a clean Drain after every worker
	// joined, before the Result is assembled.
	Drained func(total int64)
	// Count, when non-nil, adds the policy's counters to a Result.
	Count func(res *Result)
}

// FreeList is a policy's packet free list: a mutex stack whose depth is
// bounded by the window. Get returns nil when the list is empty; the policy
// then builds a fresh packet.
type FreeList[P any] struct {
	mu    sync.Mutex
	items []*P
}

// Get pops a recycled packet, or returns nil.
func (f *FreeList[P]) Get() *P {
	f.mu.Lock()
	n := len(f.items)
	if n == 0 {
		f.mu.Unlock()
		return nil
	}
	p := f.items[n-1]
	f.items[n-1] = nil
	f.items = f.items[:n-1]
	f.mu.Unlock()
	return p
}

// Put recycles p after its last observer is done with it.
func (f *FreeList[P]) Put(p *P) {
	f.mu.Lock()
	f.items = append(f.items, p)
	f.mu.Unlock()
}

func (f *FreeList[P]) len() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.items)
}

// Lane is the shell's half of one worker: its mailbox and its private
// egress records (outputs in streaming mode, egress order, latency), all
// merged after the workers join — no lock on the egress path. A policy's
// worker embeds its *Lane.
type Lane[P any] struct {
	s       *Shell[P]
	id      int
	mailbox chan Msg[P]
	outs    map[int64][]int64
	egRecs  []egRec
	lat     *stats.Histogram
}

// Shell is the runtime both engines share; see the file comment. The
// serial admitter calls the admission side (AcquireWindow, Sequence, Stage,
// Flush, Send); workers call their Lane and Complete.
type Shell[P any] struct {
	cfg   Config
	k     int
	pol   Policy[P]
	lanes []*Lane[P]

	// winCap/winUsed/winAvail form the admission-control semaphore: one
	// token per in-flight packet. The serial admitter takes tokens with one
	// atomic CAS per batch (not per packet); egressing workers return them
	// with an atomic decrement plus a non-blocking signal on winAvail. The
	// single-slot signal channel cannot lose a wakeup: the admitter is the
	// only acquirer and re-checks winUsed after every wake, and a retained
	// signal merely causes one spurious re-check. Because every in-flight
	// packet occupies at most one mailbox slot and mailboxes are sized to
	// Window, crossbar sends can never block — the window bound is what
	// makes the topology deadlock-free.
	winCap   int64
	winUsed  atomic.Int64
	winAvail chan struct{}

	quit  chan struct{} // closed by Drain once every packet egressed
	abort chan struct{} // closed by the watchdog on a stall
	done  chan struct{} // closed when completed == injected

	doneOnce  sync.Once
	abortOnce sync.Once
	wg        sync.WaitGroup

	// started flips when Start launches the topology; startT anchors the
	// run's elapsed time. wdStop/wdWg manage the watchdog goroutine.
	started bool
	startT  time.Time
	wdStop  chan struct{}
	wdWg    sync.WaitGroup

	// total holds the final injected count, -1 while admission is still
	// running (workers compare against it to detect the last egress).
	total     atomic.Int64
	completed atomic.Int64
	// submitted counts admissions — the dense packet-id space. Written
	// only by the serial admitter, read atomically by the watchdog and
	// health probes.
	submitted atomic.Int64
	stalled   atomic.Bool

	// outs[id] is the packet's final header state, written once by the
	// egressing worker and read after all workers joined. Run preallocates
	// it from the trace length; the streaming mode, which cannot size it up
	// front, records into per-lane maps merged by Outputs.
	outs [][]int64
	// egSeq hands out egress sequence numbers; Drain merges the lanes'
	// (seq, id) records into egressOrder.
	egSeq       atomic.Int64
	egressOrder []int64

	// xbuf holds the per-worker dispatch batches under assembly
	// (admitter-only); their carriers come from batchPool and are returned
	// by the draining worker.
	xbuf      []*Batch[P]
	batchPool sync.Pool

	// pools lists every free list handed out by NewFreeList, so the abort
	// tests can check that retirement recycled every packet.
	poolMu sync.Mutex
	pools  []*FreeList[P]

	met *Metrics
	trc *Tracer

	// testBeforeDispatch runs on the admitter after a packet is sequenced
	// (and ticketed) but before it is dispatched; testOnRecv runs on a
	// worker after each mailbox receive. White-box hooks for the abort and
	// watchdog tests.
	testBeforeDispatch func()
	testOnRecv         func()
}

// NewShell builds the runtime for a policy: cfg gets its defaults, and one
// Lane per worker is created (fetch them with Lane).
func NewShell[P any](cfg Config, pol Policy[P]) *Shell[P] {
	cfg = cfg.withDefaults()
	s := &Shell[P]{
		cfg:      cfg,
		k:        cfg.Workers,
		pol:      pol,
		winCap:   int64(cfg.Window),
		winAvail: make(chan struct{}, 1),
		quit:     make(chan struct{}),
		abort:    make(chan struct{}),
		done:     make(chan struct{}),
		xbuf:     make([]*Batch[P], cfg.Workers),
		met:      cfg.Metrics,
		trc:      cfg.Tracer,
	}
	s.total.Store(-1)
	if s.met == nil {
		s.met = &Metrics{} // all-nil counters: every update is a no-op
	}
	for i := 0; i < s.k; i++ {
		l := &Lane[P]{s: s, id: i, mailbox: make(chan Msg[P], cfg.Window), lat: newLatency()}
		if cfg.RecordOutputs {
			l.outs = make(map[int64][]int64) // streaming mode; unused when Run preallocates outs
		}
		s.lanes = append(s.lanes, l)
	}
	return s
}

func newLatency() *stats.Histogram { return stats.NewHistogram(latLo, latHi, latBuckets) }

// Config returns the configuration with defaults applied.
func (s *Shell[P]) Config() Config { return s.cfg }

// Metrics returns the counters the engine updates (never nil: a Config
// without Metrics gets all-nil counters, whose updates are no-ops).
func (s *Shell[P]) Metrics() *Metrics { return s.met }

// Lane returns worker w's lane.
func (s *Shell[P]) Lane(w int) *Lane[P] { return s.lanes[w] }

// NewFreeList returns an empty packet free list sized for the window.
func (s *Shell[P]) NewFreeList() *FreeList[P] {
	f := &FreeList[P]{items: make([]*P, 0, s.cfg.Window)}
	s.poolMu.Lock()
	s.pools = append(s.pools, f)
	s.poolMu.Unlock()
	return f
}

// Run drives the whole trace and blocks until every packet egressed (or
// the watchdog aborted a stall) — the batch shorthand for Start +
// SubmitBatch + Drain.
func (s *Shell[P]) Run(arrivals []core.Arrival) *Result {
	if s.cfg.RecordOutputs {
		// Sized by the trace so workers can record outputs without a lock;
		// lanes see outs non-nil and skip their streaming maps.
		s.outs = make([][]int64, len(arrivals))
	}
	if len(arrivals) == 0 {
		return s.result(0, 0)
	}
	s.Start()
	s.pol.Admit(arrivals)
	return s.Drain()
}

// Start launches the workers and the liveness watchdog, switching the
// engine into open-ended ingestion mode: the caller becomes the serial
// admitter and feeds packets until Drain. Start must be called exactly
// once, and admission only from one goroutine at a time (admission order
// is the correctness contract — C1 is defined by it).
func (s *Shell[P]) Start() {
	if s.started {
		panic("Engine.Start called twice (engines are single-use)")
	}
	s.started = true
	s.startT = time.Now()
	s.wg.Add(s.k)
	for i := 0; i < s.k; i++ {
		go func(w int) {
			defer s.wg.Done()
			s.pol.Work(w)
		}(i)
	}
	s.wdStop = make(chan struct{})
	s.wdWg.Add(1)
	go s.watchdog()
}

// Drain ends admission and blocks until every in-flight packet egressed
// (or the watchdog aborted), then joins the workers and returns the run
// summary. After Drain the engine's post-run accessors are valid.
func (s *Shell[P]) Drain() *Result {
	if !s.started {
		return s.result(0, 0)
	}
	submitted := s.submitted.Load()
	s.total.Store(submitted)
	if s.completed.Load() == submitted {
		s.closeDone()
	}
	select {
	case <-s.done:
	case <-s.abort:
	}
	close(s.wdStop)
	s.wdWg.Wait()
	close(s.quit)
	s.wg.Wait()
	if !s.stalled.Load() && s.pol.Drained != nil {
		s.pol.Drained(submitted)
	}
	s.mergeEgressOrder()
	return s.result(submitted, time.Since(s.startT))
}

// mergeEgressOrder stitches the per-lane (seq, id) egress records into the
// global wall-clock egress sequence. Runs after the workers joined.
func (s *Shell[P]) mergeEgressOrder() {
	if !s.cfg.RecordEgressOrder {
		return
	}
	var recs []egRec
	for _, l := range s.lanes {
		recs = append(recs, l.egRecs...)
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].seq < recs[j].seq })
	s.egressOrder = make([]int64, len(recs))
	for i, r := range recs {
		s.egressOrder[i] = r.id
	}
}

// watchdog aborts the run when no packet egresses for StallTimeout while
// packets are in flight, so a liveness bug fails tests loudly (Stalled)
// instead of hanging them. An idle stream (nothing in flight) is healthy,
// not stalled — essential in streaming mode, where traffic gaps of any
// length are normal.
func (s *Shell[P]) watchdog() {
	defer s.wdWg.Done()
	period := s.cfg.StallTimeout / 4
	if period < time.Millisecond {
		period = time.Millisecond
	}
	tick := time.NewTicker(period)
	defer tick.Stop()
	last := s.completed.Load()
	lastChange := time.Now()
	for {
		select {
		case <-s.wdStop:
			return
		case <-s.done:
			return
		case <-tick.C:
			cur := s.completed.Load()
			if cur != last || cur == s.submitted.Load() {
				last, lastChange = cur, time.Now()
				continue
			}
			if time.Since(lastChange) >= s.cfg.StallTimeout {
				s.stalled.Store(true)
				s.met.Stalls.Inc()
				s.abortOnce.Do(func() { close(s.abort) })
				return
			}
		}
	}
}

func (s *Shell[P]) closeDone() {
	s.doneOnce.Do(func() { close(s.done) })
}

// result assembles the run summary after every worker joined.
func (s *Shell[P]) result(injected int64, elapsed time.Duration) *Result {
	lat := newLatency()
	for _, l := range s.lanes {
		lat.Merge(l.lat)
	}
	res := &Result{
		Workers:   s.k,
		Injected:  injected,
		Completed: s.completed.Load(),
		Stalled:   s.stalled.Load(),
		Elapsed:   elapsed,
		Latency:   lat,
	}
	if s.cfg.RecordEgressOrder {
		res.Reordered = core.CountOvertakers(s.egressOrder)
	}
	if elapsed > 0 {
		res.PktsPerSec = float64(res.Completed) / elapsed.Seconds()
	}
	if s.pol.Count != nil {
		s.pol.Count(res)
	}
	return res
}

// Aborted returns a channel closed once the watchdog aborted the engine.
func (s *Shell[P]) Aborted() <-chan struct{} { return s.abort }

// AcquireWindow takes up to want admission-window tokens (at least one),
// blocking while the window is full. Returns the number taken, or 0 when
// the engine aborted. Admitter-serial — the single-acquirer assumption is
// what makes the CAS loop plus one-slot wakeup channel race-free.
func (s *Shell[P]) AcquireWindow(want int64) int64 {
	for {
		used := s.winUsed.Load()
		if free := s.winCap - used; free > 0 {
			n := want
			if n > free {
				n = free
			}
			if s.winUsed.CompareAndSwap(used, used+n) {
				return n
			}
			continue
		}
		select {
		case <-s.winAvail:
		case <-s.abort:
			return 0
		}
	}
}

// releaseWindow returns one token and wakes the admitter if it is waiting
// (worker-side at egress, admitter-side at abort-retirement).
func (s *Shell[P]) releaseWindow() {
	s.winUsed.Add(-1)
	select {
	case s.winAvail <- struct{}{}:
	default: // a wakeup is already pending; one is enough
	}
}

// Sequence commits the next n packet ids (NextID onwards) as admitted.
// Admitter-serial.
func (s *Shell[P]) Sequence(n int64) { s.submitted.Add(n) }

// Send dispatches one admitted packet to worker dest's mailbox. On abort
// the packet is retired instead (Policy.Retire, then its window token is
// returned) and Send reports false.
func (s *Shell[P]) Send(dest int, p *P) bool {
	if f := s.testBeforeDispatch; f != nil {
		f()
	}
	// Deterministic abort check before the send: without it the select
	// below could take the (closed) abort case even with mailbox room, or
	// — worse — deliver a packet to a dying worker; either way the packet
	// must be retired.
	select {
	case <-s.abort:
		s.retire(p)
		return false
	default:
	}
	select {
	case s.lanes[dest].mailbox <- Msg[P]{P: p}:
		return true
	case <-s.abort:
		s.retire(p)
		return false
	}
}

// Stage appends an admitted packet to worker dest's dispatch batch under
// assembly; Flush sends the batches. Admitter-serial.
func (s *Shell[P]) Stage(dest int, p *P) {
	b := s.xbuf[dest]
	if b == nil {
		b = s.getBatch()
		s.xbuf[dest] = b
	}
	b.Items = append(b.Items, p)
}

// Flush sends every staged batch — at most one mailbox send per worker,
// admission order preserved within each batch. Returns false when the
// engine aborted; undispatched packets are retired.
func (s *Shell[P]) Flush() bool {
	if f := s.testBeforeDispatch; f != nil {
		f()
	}
	aborted := false
	select {
	case <-s.abort:
		aborted = true // deterministic pre-check, as in Send
	default:
	}
	for w, b := range s.xbuf {
		if b == nil {
			continue
		}
		s.xbuf[w] = nil
		if !aborted {
			select {
			case s.lanes[w].mailbox <- Msg[P]{Batch: b}:
				continue
			case <-s.abort:
				aborted = true
			}
		}
		for _, p := range b.Items {
			s.retire(p)
		}
		s.PutBatch(b)
	}
	return !aborted
}

// retire hands an undispatched packet back to the policy and returns its
// window token. The packet's id stays consumed (ids must stay dense) but it
// will never egress; retire only runs on a dead engine, whose results are
// already discarded as Stalled/incomplete.
func (s *Shell[P]) retire(p *P) {
	s.pol.Retire(p)
	s.releaseWindow()
}

// getBatch/PutBatch recycle the carriers behind coalesced sends. A
// sync.Pool is fine here (unlike the packet free lists): losing a batch to
// GC costs one amortized allocation per chunk, not the packet zero-alloc
// guarantee.
func (s *Shell[P]) getBatch() *Batch[P] {
	if v := s.batchPool.Get(); v != nil {
		return v.(*Batch[P])
	}
	return &Batch[P]{Items: make([]*P, 0, 64)}
}

// PutBatch returns a drained batch carrier to the pool.
func (s *Shell[P]) PutBatch(b *Batch[P]) {
	clear(b.Items)
	b.Items = b.Items[:0]
	s.batchPool.Put(b)
}

// Complete finishes an egressed packet after the policy recycled it:
// return its window token, count it, and close the done gate on the last
// packet. Worker-side.
func (s *Shell[P]) Complete() {
	s.releaseWindow()
	if s.completed.Add(1) == s.total.Load() {
		s.closeDone()
	}
}

// TryRecv takes the next mailbox transfer without blocking.
func (l *Lane[P]) TryRecv() (Msg[P], bool) {
	select {
	case m := <-l.mailbox:
		if f := l.s.testOnRecv; f != nil {
			f()
		}
		return m, true
	default:
		return Msg[P]{}, false
	}
}

// Recv blocks for the next mailbox transfer; false means the shell quit
// (drained) or aborted, and the worker loop should return.
func (l *Lane[P]) Recv() (Msg[P], bool) {
	select {
	case m := <-l.mailbox:
		if f := l.s.testOnRecv; f != nil {
			f()
		}
		return m, true
	case <-l.s.quit:
	case <-l.s.abort:
	}
	return Msg[P]{}, false
}

// Egress records a finished packet into the lane — final fields, egress
// order, latency — then runs the OnEgress hook and hands the span (closing
// its last exec and egress segments) to the tracer. The policy recycles the
// packet next and then calls Complete, so the admitter can only reuse the
// packet's window slot after it is safely on a free list.
func (l *Lane[P]) Egress(id int64, fields []int64, start time.Time, sp *Span) {
	s := l.s
	if sp != nil {
		// Close the final exec segment; everything from here to the finish
		// — output recording and the OnEgress hook (the TCP ack enqueue on
		// the server path) — is the egress segment.
		sp.Advance(StageExec, l.id)
	}
	if s.outs != nil {
		s.outs[id] = append([]int64(nil), fields...)
	} else if l.outs != nil {
		l.outs[id] = append([]int64(nil), fields...)
	}
	if s.cfg.RecordEgressOrder {
		l.egRecs = append(l.egRecs, egRec{seq: s.egSeq.Add(1), id: id})
	}
	l.lat.Add(float64(time.Since(start).Microseconds()))
	s.met.Egressed.Inc()
	if f := s.cfg.OnEgress; f != nil {
		f(id)
	}
	if sp != nil {
		sp.Advance(StageEgress, l.id)
		s.trc.finish(sp)
	}
}

// Outputs returns each completed packet's final header fields, keyed by
// packet id — the shape equiv.CheckState consumes. Only valid after
// Run/Drain, and only when Config.RecordOutputs was set.
func (s *Shell[P]) Outputs() map[int64][]int64 {
	if s.outs == nil {
		if !s.cfg.RecordOutputs {
			return nil
		}
		out := make(map[int64][]int64)
		for _, l := range s.lanes {
			for id, f := range l.outs {
				out[id] = f
			}
		}
		return out
	}
	out := make(map[int64][]int64, len(s.outs))
	for id, f := range s.outs {
		if f != nil {
			out[int64(id)] = f
		}
	}
	return out
}

// EgressOrder returns the wall-clock egress sequence of packet ids (only
// recorded with Config.RecordEgressOrder).
func (s *Shell[P]) EgressOrder() []int64 { return s.egressOrder }

// Stalled reports whether the liveness watchdog aborted the engine. Safe
// to call from any goroutine at any time — the health-probe hook.
func (s *Shell[P]) Stalled() bool { return s.stalled.Load() }

// Workers returns the resolved worker count k.
func (s *Shell[P]) Workers() int { return s.k }

// NextID returns the packet id the next admission will assign (ids are
// dense, starting at 0). Admitter-serial: callers that index per-packet
// bookkeeping before the packet can possibly egress read it immediately
// before the Submit it predicts.
func (s *Shell[P]) NextID() int64 { return s.submitted.Load() }

// Submitted returns the number of packets admitted so far (any goroutine).
func (s *Shell[P]) Submitted() int64 { return s.submitted.Load() }

// Completed returns the number of packets egressed so far (any goroutine).
func (s *Shell[P]) Completed() int64 { return s.completed.Load() }

// InFlight returns the number of admitted-but-not-yet-egressed packets,
// bounded by Config.Window (any goroutine).
func (s *Shell[P]) InFlight() int64 { return s.submitted.Load() - s.completed.Load() }

// WindowInUse returns the number of admission-window tokens currently held
// (in-flight packets), safe from any goroutine — the live admission-control
// gauge.
func (s *Shell[P]) WindowInUse() int { return int(s.winUsed.Load()) }

// WindowCap returns the admission-window size.
func (s *Shell[P]) WindowCap() int { return int(s.winCap) }
