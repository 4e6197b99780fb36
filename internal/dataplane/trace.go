package dataplane

// Wire-to-wire tracing: where does a live packet's time actually go?
//
// The paper's whole argument is about waiting — admission order (C1/D4),
// crossbar hops (D3), shard placement (D2) — but flat counters cannot say
// whether a daemon packet's round trip was spent in the ingress queue, the
// admission window, a ticket queue, or on a worker. This file adds a
// sampled per-packet span: the server stamps a packet at decode, every
// stage transition appends one duration record, and the finished span is
// handed to a collector goroutine off the hot path.
//
// Discipline (the PRECISION rule — do the expensive thing off the fast
// path, rarely):
//
//   - Sampling is decided once, at decode, with a single atomic counter;
//     an unsampled packet carries a nil span and every stamp site is a nil
//     check.
//   - A sampled packet's span travels *with* the packet, which is owned by
//     exactly one goroutine at a time (admitter, then whichever worker
//     holds it) — so stamping is lock-free by construction; channel
//     handoffs provide the happens-before edges.
//   - Finished spans are pushed to the collector over a buffered channel
//     with a non-blocking send: when the collector falls behind, spans are
//     dropped and counted, never back-pressured into the dataplane.
//
// The collector folds each span into per-stage latency histograms on the
// shared telemetry registry (served on /metrics and /stats) and optionally
// streams the raw span to a sink (mp5d's -trace-jsonl).

import (
	"math"
	"sync"
	"sync/atomic"
	"time"

	"mp5/internal/telemetry"
)

// TraceStage names one segment of a packet's wire-to-wire lifecycle.
type TraceStage uint8

const (
	// StageIngressWait is decode → admitter pickup: time spent queued in
	// the server's bounded ingress channel (stamped by the server).
	StageIngressWait TraceStage = iota
	// StageWindowWait is the admission-control wait: blocking on the
	// engine's window semaphore before a ticket can be issued.
	StageWindowWait
	// StageAdmit is admitter work: resolution-stage execution, preemptive
	// address resolution, and D4 ticket issue.
	StageAdmit
	// StageCrossbar is one mailbox transit — initial dispatch or a D3
	// steer — from the send decision to the receiving worker picking the
	// packet up. A packet records one crossbar segment per hop.
	StageCrossbar
	// StageExec is one on-worker execution segment (stage marching between
	// handoffs); the record's Pipe says which worker ran it.
	StageExec
	// StageTicketWait is time parked on the owning worker waiting to hold
	// the head ticket of every slot of a visit (D4 ordering wait).
	StageTicketWait
	// StageReplayWait is time a state-compute-replication worker
	// (internal/screp) spends waiting for earlier packets' write deltas to
	// be published before its own stateful span may run — the replication
	// engine's analogue of the D4 ticket wait. Never stamped by this
	// package's sharded engine.
	StageReplayWait
	// StageEgress is egress bookkeeping: output recording plus the
	// OnEgress hook (on the server path, the TCP ack enqueue).
	StageEgress

	numTraceStages
)

var stageNames = [numTraceStages]string{
	"ingress_wait", "window_wait", "admit", "crossbar", "exec", "ticket_wait", "replay_wait", "egress",
}

// String returns the stage's JSONL/metrics name.
func (st TraceStage) String() string {
	if int(st) < len(stageNames) {
		return stageNames[st]
	}
	return "unknown"
}

// StageRec is one recorded lifecycle segment of a sampled packet.
type StageRec struct {
	Stage string `json:"stage"`
	// Pipe is the worker the segment ran on (-1 for admitter/server-side
	// segments).
	Pipe int   `json:"pipe"`
	Ns   int64 `json:"ns"`

	code TraceStage // numeric stage for collector-side folding
}

// Span is one sampled packet's wire-to-wire lifecycle: a start stamp taken
// at server decode and an ordered list of stage segments whose durations
// sum exactly to TotalNs (each Advance accrues exactly the time since the
// previous stamp, and TotalNs is sealed from the last stamp). Spans are packet-owned while live — no locking — and immutable
// once handed to the collector.
type Span struct {
	Type    string     `json:"type"` // always "wire_span"
	ID      int64      `json:"pkt"`
	Proto   string     `json:"proto,omitempty"`
	StartNs int64      `json:"start_unix_ns"`
	TotalNs int64      `json:"total_ns"`
	Stages  []StageRec `json:"stages"`

	t0   time.Time
	last time.Duration
}

// Advance closes the current segment: it records the time elapsed since
// the previous stamp under the given stage. Nil-safe (unsampled packets
// carry a nil span).
func (sp *Span) Advance(st TraceStage, pipe int) {
	if sp == nil {
		return
	}
	now := time.Since(sp.t0)
	sp.Stages = append(sp.Stages, StageRec{Stage: st.String(), Pipe: pipe, Ns: int64(now - sp.last), code: st})
	sp.last = now
}

// StageTotals sums the span's segment durations per stage (and overall) —
// the folded view the collector feeds into histograms and checkers use to
// reconcile against TotalNs.
func (sp *Span) StageTotals() (per [numTraceStages]int64, sum int64) {
	for _, r := range sp.Stages {
		if int(r.code) < len(per) {
			per[r.code] += r.Ns
		}
		sum += r.Ns
	}
	return per, sum
}

// Trace histogram shape: microseconds at 1 µs resolution up to ~16 ms for
// stages, 4 µs resolution up to ~65 ms for the total (loopback RTTs sit
// near 1 ms; the windows keep tails visible without huge bucket arrays).
const (
	stageHistHi  = 1 << 14
	stageHistN   = 1 << 14
	totalHistHi  = 1 << 16
	totalHistN   = 1 << 14
	collectorCap = 4096
)

// TracerConfig parameterizes a Tracer.
type TracerConfig struct {
	// SampleEvery samples one packet of every SampleEvery decoded (1 =
	// every packet); <= 0 defaults to 1024.
	SampleEvery int
	// Sink, when non-nil, receives every collected span on the collector
	// goroutine (mp5d wires a JSONL writer here). The span is recycled the
	// moment Sink returns, so Sink must not retain sp or its Stages slice —
	// deep-copy anything it needs beyond the call.
	Sink func(sp *Span)
	// Registry receives the per-stage latency histograms and the
	// sampled/dropped counters; nil disables the metric surface (spans
	// still flow to Sink).
	Registry *telemetry.Registry
}

// Tracer owns the sampling decision and the off-hot-path collector. A nil
// *Tracer is the disabled state: Sample returns nil and every method is a
// no-op, so the dataplane and server pay only nil checks when tracing is
// off.
type Tracer struct {
	every int64
	tick  atomic.Int64

	ch   chan *Span
	sink func(sp *Span)

	stageH [numTraceStages]*telemetry.Histogram
	totalH *telemetry.Histogram

	sampled *telemetry.Counter
	dropped *telemetry.Counter
	// sampledN/droppedN shadow the counters so accounting works with a
	// nil registry too (bench runs).
	sampledN atomic.Int64
	droppedN atomic.Int64

	closed atomic.Bool
	stop   chan struct{}
	wg     sync.WaitGroup

	// pool recycles spans: Sample draws from it and the collector returns
	// each span after folding it (and after the sink, which must not retain
	// it, returned). Dropped spans are returned at the drop site.
	pool sync.Pool
}

// NewTracer builds and starts a tracer (collector goroutine included).
// Close it after the engine drained to flush the in-flight spans.
func NewTracer(cfg TracerConfig) *Tracer {
	if cfg.SampleEvery <= 0 {
		cfg.SampleEvery = 1024
	}
	t := &Tracer{
		every: int64(cfg.SampleEvery),
		ch:    make(chan *Span, collectorCap),
		sink:  cfg.Sink,
		stop:  make(chan struct{}),
	}
	if r := cfg.Registry; r != nil {
		for st := TraceStage(0); st < numTraceStages; st++ {
			t.stageH[st] = r.NewHistogram(
				"trace_"+st.String()+"_us",
				"sampled wire-span "+st.String()+" segment latency (µs)",
				0, stageHistHi, stageHistN)
		}
		t.totalH = r.NewHistogram("trace_total_us",
			"sampled wire-span decode-to-egress latency (µs)",
			0, totalHistHi, totalHistN)
		t.sampled = r.NewCounter("trace_spans_sampled_total", "packets sampled for wire-to-wire spans")
		t.dropped = r.NewCounter("trace_spans_dropped_total", "finished spans dropped at the full collector queue")
	}
	t.wg.Add(1)
	go t.collect()
	return t
}

// Sample decides, in one atomic increment, whether the packet being
// decoded is traced. It returns a started span (stamped now) for sampled
// packets and nil otherwise. Nil-safe: a nil tracer samples nothing.
func (t *Tracer) Sample() *Span {
	if t == nil {
		return nil
	}
	if t.tick.Add(1)%t.every != 0 {
		return nil
	}
	t.sampled.Inc()
	t.sampledN.Add(1)
	now := time.Now()
	if v := t.pool.Get(); v != nil {
		sp := v.(*Span)
		sp.ID, sp.Proto, sp.TotalNs = 0, "", 0
		sp.StartNs = now.UnixNano()
		sp.t0, sp.last = now, 0
		sp.Stages = sp.Stages[:0]
		return sp
	}
	return &Span{Type: "wire_span", StartNs: now.UnixNano(), t0: now, Stages: make([]StageRec, 0, 12)}
}

// finish seals the span and hands it to the collector without ever
// blocking the egressing worker: a full collector queue drops the span
// (counted), never back-pressures the dataplane. TotalNs is the span's
// last stamp, not a fresh clock read, so the stage durations sum to it
// exactly however long the worker is preempted before finishing.
func (t *Tracer) finish(sp *Span) {
	if t == nil || sp == nil {
		return
	}
	sp.TotalNs = int64(sp.last)
	if t.closed.Load() {
		t.pool.Put(sp)
		return
	}
	select {
	case t.ch <- sp:
	default:
		t.dropped.Inc()
		t.droppedN.Add(1)
		t.pool.Put(sp)
	}
}

// collect is the off-hot-path merge loop: fold each finished span into the
// per-stage histograms and stream it to the sink.
func (t *Tracer) collect() {
	defer t.wg.Done()
	for {
		select {
		case sp := <-t.ch:
			t.observe(sp)
		case <-t.stop:
			for {
				select {
				case sp := <-t.ch:
					t.observe(sp)
				default:
					return
				}
			}
		}
	}
}

func (t *Tracer) observe(sp *Span) {
	per, _ := sp.StageTotals()
	for st, ns := range per {
		if ns > 0 {
			t.stageH[st].Observe(float64(ns) / 1e3)
		}
	}
	t.totalH.Observe(float64(sp.TotalNs) / 1e3)
	if t.sink != nil {
		t.sink(sp)
	}
	t.pool.Put(sp) // sinks do not retain spans (see TracerConfig.Sink)
}

// Rotate starts a new histogram window on every stage histogram (the
// background sampler calls this so /metrics quantiles track the recent
// past instead of the whole run).
func (t *Tracer) Rotate() {
	if t == nil {
		return
	}
	for _, h := range t.stageH {
		h.Rotate()
	}
	t.totalH.Rotate()
}

// Close stops sampling, drains the collector queue, and joins the
// collector goroutine. Call after the engine drained (no finish may race a
// Close; late finishes after Close are dropped silently).
func (t *Tracer) Close() {
	if t == nil {
		return
	}
	if t.closed.Swap(true) {
		return
	}
	close(t.stop)
	t.wg.Wait()
}

// Sampled returns the number of packets sampled so far.
func (t *Tracer) Sampled() int64 {
	if t == nil {
		return 0
	}
	return t.sampledN.Load()
}

// Dropped returns the number of finished spans shed at the collector.
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	return t.droppedN.Load()
}

// StageStat is the aggregate view of one stage's latency distribution, in
// the shape the admin plane serves (/stats) and mp5top renders.
type StageStat struct {
	Stage string  `json:"stage"`
	Count int64   `json:"count"`
	P50us float64 `json:"p50_us"`
	P90us float64 `json:"p90_us"`
	P99us float64 `json:"p99_us"`
}

// StageStats snapshots every stage histogram (plus the "total" row last).
// Stages that never observed a sample are omitted; a nil or registry-less
// tracer returns nil.
func (t *Tracer) StageStats() []StageStat {
	if t == nil || t.totalH == nil {
		return nil
	}
	out := make([]StageStat, 0, numTraceStages+1)
	snap := func(name string, h *telemetry.Histogram) {
		n := h.Count()
		if n == 0 {
			return
		}
		// Quantile is NaN when both rotation windows drained (an idle
		// daemon); clamp to 0 so /stats stays valid JSON.
		q := func(p float64) float64 {
			v := h.Quantile(p)
			if math.IsNaN(v) {
				return 0
			}
			return v
		}
		out = append(out, StageStat{
			Stage: name, Count: n,
			P50us: q(0.5), P90us: q(0.9), P99us: q(0.99),
		})
	}
	for st := TraceStage(0); st < numTraceStages; st++ {
		snap(st.String(), t.stageH[st])
	}
	snap("total", t.totalH)
	return out
}
