package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"

	"mp5/internal/apps"
	"mp5/internal/compiler"
	"mp5/internal/core"
	"mp5/internal/dataplane"
	"mp5/internal/ir"
	"mp5/internal/workload"
)

// bench holds one run: the workload's program, trace and reference, the
// per-round scratch buffers, and what the run has counted so far. The
// buffers are sized once for the whole trace, so a round allocates nothing
// of the benchmark's own that could show in the heap figure.
type bench struct {
	wl     workloadDef
	src    string
	prog   *ir.Program
	trace  []core.Arrival
	frames []byte
	ref    reference
	done   []int64   // completion stamp per packet of the current round
	stamps []int64   // due (paced) or send (saturated) time per burst
	lat    []float64 // per-packet latency scratch, µs
	late   []float64 // per-tick pacer lateness scratch, µs
	spans  *spanLog  // nil unless traced
	prov   map[string]any
	errs   []error

	attempted, failed int64
	peakHeap          int64 // most live heap a timed round retained
	rounds            int
}

func compileSource(src string) (*ir.Program, error) {
	return compiler.Compile(src, compiler.Options{Target: compiler.TargetMP5, MaxStages: 16})
}

// newBench generates the workload's trace from seed and computes its
// reference. None of this is timed.
func newBench(wl workloadDef, seed int64, traced bool) (*bench, error) {
	src := apps.SyntheticSource(wl.stateful, wl.regSize)
	prog, err := compileSource(src)
	if err != nil {
		return nil, err
	}
	trace := workload.Synthetic(prog, workload.Spec{
		Packets: tracePkts, Pipelines: 4, Seed: seed, Pattern: wl.pattern,
	}, wl.stateful, wl.regSize)
	b := benchOn(wl, prog, trace)
	if traced {
		b.spans = &spanLog{}
	}
	return b, nil
}

// benchOn prepares a run of wl's system on trace, a trace of prog, and
// computes the trace's reference.
func benchOn(wl workloadDef, prog *ir.Program, trace []core.Arrival) *bench {
	n := len(trace)
	return &bench{
		wl: wl, src: apps.SyntheticSource(wl.stateful, wl.regSize), prog: prog, trace: trace,
		frames: encodeFrames(trace),
		ref:    newReference(prog, trace),
		done:   make([]int64, n),
		stamps: make([]int64, n),
		lat:    make([]float64, n),
		late:   make([]float64, n),
		prov:   map[string]any{},
	}
}

// fail records a verification or liveness failure that cost n packets.
func (b *bench) fail(err error, n int64) {
	b.errs = append(b.errs, err)
	b.failed += n
}

// roundStats is what one round measured.
type roundStats struct {
	elapsedNs     int64 // first send → last completion
	sendNs        int64 // time inside submit calls
	finishNs      int64 // drain or shutdown
	cpuNs         int64
	allocs        uint64
	p50, p90, p99 float64 // µs from due time to completion, paced rounds
	// ticks is the number of paced bursts; lateP50 and lateP99 are how
	// many µs after its due time a burst left.
	ticks            int
	lateP50, lateP99 float64
	heapBytes        int64 // live heap the round retained after its drain; trackHeap rounds
	counts           counts
	tally            *stageTally // traced rounds
}

func (r roundStats) nsPerPkt() float64 { return float64(r.elapsedNs) / tracePkts }
func (r roundStats) pps() float64      { return tracePkts * 1e9 / float64(r.elapsedNs) }

// round builds a fresh system, offers the whole trace once — saturated
// (closed loop, chunk packets per send) when rate is 0, open loop at rate
// packets per second otherwise — waits for every packet, and checks the
// final registers against the reference. With trackHeap it also measures
// the live heap the round added, taken after the drain while the system is
// still referenced. It returns false when the round failed; the failure is
// already counted.
func (b *bench) round(parent int64, sp spec, rate int, traced, trackHeap bool) (roundStats, bool) {
	b.rounds++
	var st roundStats
	n := len(b.trace)
	clear(b.done)
	sp.prog = b.prog
	var heap0 int64
	if trackHeap {
		// Two collections: the second frees what sync.Pools kept through
		// the first, so earlier systems' pooled objects are not in the
		// baseline.
		runtime.GC()
		runtime.GC()
		heap0 = int64(liveHeap())
	}
	var pc *pacer
	if rate > 0 {
		var err error
		if pc, err = newPacer(); err != nil {
			b.attempted += int64(n)
			b.fail(fmt.Errorf("round %d: %w", b.rounds, err), int64(n))
			return st, false
		}
		defer pc.close()
	}
	if traced {
		st.tally = &stageTally{round: b.rounds, ns: map[string]int64{}}
		sp.tracer = newTracer(st.tally)
	}
	rs := b.spans.begin("round", parent, b.rounds)
	cs := b.spans.begin("construct", rs, b.rounds)
	in, err := start(sp, b.trace, b.frames, b.done)
	b.spans.end(cs)
	b.attempted += int64(n)
	if err != nil {
		sp.tracer.Close()
		b.fail(fmt.Errorf("round %d: start %s: %w", b.rounds, sp.sys, err), int64(n))
		return st, false
	}
	runtime.GC() // the previous round's garbage is not this round's cost

	per, sends := chunk, (n+chunk-1)/chunk
	if rate > 0 {
		per = max(1, rate*int(tick)/int(time.Second))
		sends = (n + per - 1) / per
	}
	stamps := b.stamps[:sends]
	var spanBuf []*dataplane.Span
	if traced && in.sys != sysWire {
		spanBuf = make([]*dataplane.Span, per)
	}
	cpu0, alloc0 := cpuNs(), heapAllocs()
	t0 := clock()
	if rate > 0 {
		t0 += int64(tick) // first burst one tick out
	}
	var sendErr error
	for k := 0; k < sends && sendErr == nil; k++ {
		lo, hi := k*per, min((k+1)*per, n)
		if rate > 0 {
			stamps[k] = t0 + int64(k)*int64(tick)
			if sendErr = pc.until(stamps[k]); sendErr != nil {
				break
			}
		}
		s := clock()
		if rate > 0 {
			b.late[k] = float64(s-stamps[k]) / 1e3
		} else {
			stamps[k] = s
		}
		var spans []*dataplane.Span
		if spanBuf != nil {
			spans = spanBuf[:hi-lo]
			for i := range spans {
				spans[i] = sp.tracer.Sample()
			}
		}
		sendErr = in.submit(lo, hi, spans)
		e := clock()
		st.sendNs += e - s
		if traced {
			b.spans.interval("submit", rs, b.rounds, nil, s, e)
		}
	}
	ds := b.spans.begin("drain", rs, b.rounds)
	finErr := in.finish()
	b.spans.end(ds)
	st.cpuNs = cpuNs() - cpu0
	st.allocs = heapAllocs() - alloc0
	st.finishNs, st.counts = in.finishNs, in.counts

	var last int64
	completed := 0
	for i, d := range b.done {
		if d == 0 {
			b.lat[i] = math.Inf(1) // never completed: over every limit
			continue
		}
		completed++
		last = max(last, d)
		b.lat[i] = float64(d-stamps[i/per]) / 1e3
		if traced && (i+1)%sampleEvery == 0 {
			id := int64(i)
			b.spans.interval("pkt", rs, b.rounds, &id, stamps[i/per], d)
		}
	}
	st.elapsedNs = last - t0
	if rate > 0 {
		sort.Float64s(b.lat)
		st.p50, st.p90, st.p99 = quantile(b.lat, 0.50), quantile(b.lat, 0.90), quantile(b.lat, 0.99)
		late := b.late[:sends]
		sort.Float64s(late)
		st.ticks, st.lateP50, st.lateP99 = sends, quantile(late, 0.50), quantile(late, 0.99)
	}
	if trackHeap {
		runtime.GC()
		st.heapBytes = max(0, int64(liveHeap())-heap0)
		b.peakHeap = max(b.peakHeap, st.heapBytes)
	}
	if traced {
		sp.tracer.Close()
		b.spans.engine = append(b.spans.engine, st.tally.keep...)
		st.tally.keep = nil
	}
	vs := b.spans.begin("verify", rs, b.rounds)
	err = b.ref.checkRegs(in.finalRegs)
	b.spans.end(vs)
	b.spans.end(rs)
	switch {
	case sendErr != nil || finErr != nil:
		b.fail(fmt.Errorf("round %d (%s): %v %v", b.rounds, sp.sys, sendErr, finErr), int64(n))
	case completed < n:
		b.fail(fmt.Errorf("round %d (%s): %d of %d packets completed", b.rounds, sp.sys, completed, n), int64(n-completed))
	case err != nil:
		b.fail(fmt.Errorf("round %d (%s): %w", b.rounds, sp.sys, err), int64(n))
	case in.counts.dropped != 0:
		b.fail(fmt.Errorf("round %d (%s): daemon dropped %d packets", b.rounds, sp.sys, in.counts.dropped), int64(n))
	default:
		return st, true
	}
	return st, false
}

// mode is one kind of round: saturated when rate is 0, otherwise open loop
// at rate packets per second; traced rounds carry the engine tracer.
type mode struct {
	rate   int
	traced bool
}

// phase runs one untimed, untraced warm-up round per mode, then cycles
// through the modes in timed rounds until their measured time reaches
// budget and every mode ran minRounds times. Cycling spreads each mode's
// rounds over the whole phase, so a slow spell of the host hits every mode
// alike. between, when non-nil, runs after every timed round, for the same
// reason; a false result ends the phase as failed. It returns the timed
// rounds of each mode.
func (b *bench) phase(name string, budget time.Duration, minRounds int, sp spec, modes []mode, trackHeap bool, between func(parent int64) bool) ([][]roundStats, bool) {
	ps := b.spans.begin("phase:"+name, 0, 0)
	defer b.spans.end(ps)
	for _, md := range modes {
		if _, ok := b.round(ps, sp, md.rate, false, false); !ok {
			return nil, false
		}
	}
	out := make([][]roundStats, len(modes))
	var spent int64
	for i := 0; spent < int64(budget) || i < minRounds*len(modes); i++ {
		md := modes[i%len(modes)]
		st, ok := b.round(ps, sp, md.rate, md.traced, trackHeap)
		if !ok {
			return out, false
		}
		out[i%len(modes)] = append(out[i%len(modes)], st)
		spent += st.elapsedNs
		if between != nil && !between(ps) {
			return out, false
		}
	}
	return out, true
}

// setupTimes collects the seconds of setup reps.
type setupTimes struct{ total, compile []float64 }

// setupRep builds the workload's system once from Domino source up to its
// first completed packet, then tears it down. Unless warmUp, it appends the
// rep's total and compile seconds to t. Callers collect garbage before a
// group of reps; a rep that a collection still slows is one sample of many
// behind a median.
func (b *bench) setupRep(parent int64, t *setupTimes, warmUp bool) bool {
	clear(b.done[:1])
	ss := b.spans.begin("setup", parent, 0)
	t0 := clock()
	cs := b.spans.begin("compile", ss, 0)
	prog, err := compileSource(b.src)
	b.spans.end(cs)
	t1 := clock()
	var in *instance
	if err == nil {
		ns := b.spans.begin("construct", ss, 0)
		sp := b.primary()
		sp.prog = prog
		in, err = start(sp, b.trace[:1], b.frames, b.done[:1])
		b.spans.end(ns)
	}
	if err == nil {
		err = in.submit(0, 1, nil)
	}
	if err == nil {
		err = in.awaitFirst()
	}
	t2 := clock()
	b.spans.end(ss)
	b.attempted++
	if in != nil {
		if ferr := in.finish(); err == nil {
			err = ferr
		}
	}
	if err != nil {
		b.fail(fmt.Errorf("setup: %w", err), 1)
		return false
	}
	if !warmUp {
		t.total = append(t.total, float64(t2-t0)/1e9)
		t.compile = append(t.compile, float64(t1-t0)/1e9)
	}
	return true
}

// setupBlock runs one untimed warm-up rep, then reps timed setup reps in a
// row.
func (b *bench) setupBlock(reps int) (setupTimes, bool) {
	ps := b.spans.begin("phase:setup", 0, 0)
	defer b.spans.end(ps)
	var t setupTimes
	runtime.GC()
	for r := 0; r <= reps; r++ {
		if !b.setupRep(ps, &t, r == 0) {
			return t, false
		}
	}
	return t, true
}

// record makes one recording run of the workload's system and checks final
// registers, every packet's outputs, and C1 access order against the
// reference.
func (b *bench) record() bool {
	ps := b.spans.begin("phase:record", 0, 0)
	defer b.spans.end(ps)
	n := len(b.trace)
	clear(b.done)
	b.attempted += int64(n)
	sp := b.primary()
	sp.prog, sp.record = b.prog, true
	in, err := start(sp, b.trace, b.frames, b.done)
	if err != nil {
		b.fail(fmt.Errorf("recording run: %w", err), int64(n))
		return false
	}
	for lo := 0; lo < n && err == nil; lo += chunk {
		err = in.submit(lo, min(lo+chunk, n), nil)
	}
	if ferr := in.finish(); err == nil {
		err = ferr
	}
	vs := b.spans.begin("verify", ps, 0)
	if err == nil {
		err = b.ref.checkRecorded(in.finalRegs, in.outputs(), in.accessOrders())
	}
	b.spans.end(vs)
	if err != nil {
		b.fail(fmt.Errorf("recording run: %w", err), int64(n))
		return false
	}
	return true
}

// primary returns the spec of the workload's own system.
func (b *bench) primary() spec { return spec{sys: b.wl.system, workers: workers} }

// runUntraced measures the end-to-end metrics: saturated and paced rounds
// alternate for the whole budget, with setupPerRound setup reps after every
// round, so setup time is sampled across the whole run like the rounds.
func (b *bench) runUntraced(budget time.Duration) result {
	var setup setupTimes
	ok := b.setupRep(0, &setup, true) && b.record()
	var rounds [][]roundStats
	if ok {
		between := func(parent int64) bool {
			runtime.GC()
			for range setupPerRound {
				if !b.setupRep(parent, &setup, false) {
					return false
				}
			}
			return true
		}
		rounds, ok = b.phase("measure", budget, 3, b.primary(), []mode{{}, {rate: b.wl.pacedPPS}}, true, between)
	}
	m := map[string]metric{}
	if !ok {
		return b.result(m)
	}
	sat, paced := rounds[0], rounds[1]
	var pps, p50, p90, p99, cpu, lateP50, lateP99, heap []float64
	ticks := 0
	for _, r := range sat {
		pps = append(pps, r.pps())
		heap = append(heap, float64(r.heapBytes)/(1<<20))
	}
	for _, r := range paced {
		p50 = append(p50, r.p50)
		p90 = append(p90, r.p90)
		p99 = append(p99, r.p99)
		cpu = append(cpu, float64(r.cpuNs)/1e3/tracePkts)
		lateP50 = append(lateP50, r.lateP50)
		lateP99 = append(lateP99, r.lateP99)
		heap = append(heap, float64(r.heapBytes)/(1<<20))
		ticks += r.ticks
	}
	m["throughput_pps"] = metric{median(pps), "pkt/s"}
	m["latency_p50_us"] = metric{median(p50), "us"}
	m["cpu_us_per_pkt"] = metric{median(cpu), "us"}
	m["setup_s"] = metric{median(setup.total), "s"}
	m["heap_peak_mb"] = metric{float64(b.peakHeap) / (1 << 20), "MiB"}
	// The tail is reported but not gated: on two shared CPUs a host or
	// scheduler stall of a few milliseconds in some runs moves p90 and p99
	// by up to half their value (see README.md).
	b.prov["latency_p90_us"] = median(p90)
	b.prov["latency_p99_us"] = median(p99)
	b.prov["phases"] = map[string]any{
		"saturated": map[string]any{"rounds": len(sat), "packets": len(sat) * tracePkts, "round_pps": pps},
		"paced": map[string]any{"rounds": len(paced), "packets": len(paced) * tracePkts,
			"rate_pps": b.wl.pacedPPS, "latency_samples_per_round": tracePkts,
			"percentiles":  "nearest rank per round, median over rounds",
			"round_p50_us": p50, "round_p90_us": p90, "round_p99_us": p99, "round_cpu_us_per_pkt": cpu,
			"ticks": ticks, "late_p50_us": median(lateP50), "late_p99_us": median(lateP99)},
		"setup": map[string]any{"reps": len(setup.total), "reps_per_round": setupPerRound,
			"compile_median_s": median(setup.compile)},
		"heap": map[string]any{"round_mib": heap},
	}
	return b.result(m)
}

// result assembles the final line and records failed_frac in provenance.
func (b *bench) result(m map[string]metric) result {
	b.prov["attempted"] = b.attempted
	b.prov["failed"] = b.failed
	if b.attempted > 0 {
		b.prov["failed_frac"] = float64(b.failed) / float64(b.attempted)
	}
	errs := make([]string, len(b.errs))
	for i, e := range b.errs {
		errs[i] = e.Error()
	}
	b.prov["errors"] = errs
	return result{
		Correct:   len(b.errs) == 0,
		Attempted: max(b.attempted, 1),
		Failed:    b.failed,
		Metrics:   m,
	}
}
