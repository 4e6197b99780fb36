package main

import (
	"fmt"
	"time"

	"mp5/internal/banzai"
	"mp5/internal/ir"
	"mp5/internal/ir/bytecode"
)

// runTraced measures the per-layer metrics. It repeats the workload's
// saturated phase with untraced and traced rounds alternating (their ratio
// is the tracing overhead), runs a shorter paced phase for the load
// generator's own figures, then climbs the layer ladder on the same trace:
// the VM alone, the sharded and replicated engines at one and two workers,
// and the daemon at two.
func (b *bench) runTraced(budget time.Duration) result {
	m := map[string]metric{}
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }

	setup, ok := b.setupBlock(setupReps)
	ok = ok && b.record()
	if !ok {
		return b.result(m)
	}
	put("compiler.compile_ms", median(setup.compile)*1e3, "ms")

	sat, ok := b.phase("saturated", budget/3, 2, b.primary(), []mode{{}, {traced: true}}, false, nil)
	if !ok {
		return b.result(m)
	}
	var plain, traced []float64
	for _, r := range sat[0] {
		plain = append(plain, r.pps())
	}
	for _, r := range sat[1] {
		traced = append(traced, r.pps())
	}
	put("trace.overhead_frac", 1-median(traced)/median(plain), "frac")

	paced, ok := b.phase("paced", budget/6, 2, b.primary(), []mode{{rate: b.wl.pacedPPS}}, false, nil)
	if !ok {
		return b.result(m)
	}
	var late, send []float64
	ticks := 0
	for _, r := range paced[0] {
		late = append(late, r.lateP99)
		send = append(send, float64(r.sendNs)/tracePkts)
		ticks += r.ticks
	}
	put("loadgen.late_p99_us", median(late), "us")
	put("loadgen.send_ns_per_pkt", median(send), "ns")

	es := b.spans.begin("phase:exec-only", 0, 0)
	execNs, err := b.execOnly(budget / 16)
	b.spans.end(es)
	if err != nil {
		b.fail(err, tracePkts)
		return b.result(m)
	}
	put("bytecode.exec_ns_per_pkt", execNs, "ns")

	leg := budget / 12
	var legs [5]legStats
	for i, l := range []struct {
		name, sys string
		w         int
	}{
		{"dataplane-w1", sysSharded, 1},
		{"dataplane-w2", sysSharded, 2},
		{"screp-w1", sysScrep, 1},
		{"screp-w2", sysScrep, 2},
		{"daemon-w2", sysWire, 2},
	} {
		// Two-worker legs end with one traced round for the stage means,
		// busy time and queue peaks.
		legs[i], ok = b.leg(l.name, spec{sys: l.sys, workers: l.w}, leg, l.w == 2)
		if !ok {
			return b.result(m)
		}
	}
	dp1, dp2, sr1, sr2, wire := legs[0], legs[1], legs[2], legs[3], legs[4]

	put("dataplane.new_ms", dp2.newMs, "ms")
	put("dataplane.w1_ns_per_pkt", dp1.nsPerPkt, "ns")
	put("dataplane.w2_ns_per_pkt", dp2.nsPerPkt, "ns")
	put("dataplane.speedup_w2_w1", dp1.nsPerPkt/dp2.nsPerPkt, "x")
	put("dataplane.submit_ns_per_pkt", dp2.submitNs, "ns")
	put("dataplane.drain_ms", dp2.drainMs, "ms")
	put("dataplane.steers_per_pkt", dp2.perPkt(func(r roundStats) int64 { return r.counts.steers }), "1/pkt")
	put("dataplane.parks_per_pkt", dp2.perPkt(func(r roundStats) int64 { return r.counts.parks }), "1/pkt")
	put("dataplane.shard_moves", dp2.perPkt(func(r roundStats) int64 { return r.counts.shardMoves })*tracePkts, "count")
	put("dataplane.allocs_per_pkt", dp2.allocs, "1/pkt")
	put("dataplane.worker_busy_frac", float64(dp2.traced.counts.busyNs)/float64(dp2.traced.elapsedNs), "frac")
	put("dataplane.mailbox_peak", float64(dp2.traced.counts.mailboxPeak), "count")
	put("dataplane.ticket_depth_peak", float64(dp2.traced.counts.ticketPeak), "count")
	for _, st := range []string{"window_wait", "admit", "crossbar", "exec", "ticket_wait", "egress"} {
		put("dataplane."+st+"_ns", dp2.traced.tally.mean(st), "ns")
	}

	put("screp.new_ms", sr2.newMs, "ms")
	put("screp.w1_ns_per_pkt", sr1.nsPerPkt, "ns")
	put("screp.w2_ns_per_pkt", sr2.nsPerPkt, "ns")
	put("screp.speedup_w2_w1", sr1.nsPerPkt/sr2.nsPerPkt, "x")
	put("screp.submit_ns_per_pkt", sr2.submitNs, "ns")
	put("screp.drain_ms", sr2.drainMs, "ms")
	put("screp.replay_wait_ns_per_pkt", sr2.perPkt(func(r roundStats) int64 { return r.counts.replayWaitNs }), "ns")
	put("screp.lag_peak", float64(sr2.traced.counts.lagPeak), "count")
	put("screp.allocs_per_pkt", sr2.allocs, "1/pkt")
	for _, st := range []string{"replay_wait", "crossbar", "exec"} {
		put("screp."+st+"_ns", sr2.traced.tally.mean(st), "ns")
	}

	put("server.start_ms", wire.startMs, "ms")
	put("server.wire_ns_per_pkt", wire.nsPerPkt-dp2.nsPerPkt, "ns")
	put("server.ingress_wait_ns", wire.traced.tally.mean("ingress_wait"), "ns")
	// Counts that read the same on every run of the same code; a nonzero
	// server.dropped has already failed its round.
	b.prov["counts"] = map[string]any{
		"dataplane.wasted_per_pkt":      dp2.perPkt(func(r roundStats) int64 { return r.counts.wasted }),
		"screp.deltas_per_pkt":          sr2.perPkt(func(r roundStats) int64 { return r.counts.deltas }),
		"screp.writes_replayed_per_pkt": sr2.perPkt(func(r roundStats) int64 { return r.counts.replayed }),
		"server.dropped":                0,
	}
	b.prov["ladder"] = map[string]any{
		"rounds_per_leg": len(dp2.rounds), "leg_budget_s": leg.Seconds(),
		"saturated_rounds": len(sat[0]) + len(sat[1]), "paced_rounds": len(paced[0]), "paced_ticks": ticks,
	}
	return b.result(m)
}

// legStats is one ladder leg: medians over its untraced rounds, plus its
// traced round when it has one.
type legStats struct {
	rounds                 []roundStats
	traced                 roundStats
	nsPerPkt, submitNs     float64
	drainMs, newMs, allocs float64
	startMs                float64
}

// perPkt is the median over untraced rounds of a per-round count divided by
// the round's packets.
func (l legStats) perPkt(count func(roundStats) int64) float64 {
	xs := make([]float64, len(l.rounds))
	for i, r := range l.rounds {
		xs[i] = float64(count(r)) / tracePkts
	}
	return median(xs)
}

func (b *bench) leg(name string, sp spec, budget time.Duration, withTraced bool) (legStats, bool) {
	var l legStats
	rounds, ok := b.phase(name, budget, 3, sp, []mode{{}}, false, nil)
	if !ok {
		return l, false
	}
	l.rounds = rounds[0]
	var ns, sub, drain, newMs, startMs, allocs []float64
	for _, r := range l.rounds {
		ns = append(ns, r.nsPerPkt())
		sub = append(sub, float64(r.sendNs)/tracePkts)
		drain = append(drain, float64(r.finishNs)/1e6)
		newMs = append(newMs, float64(r.counts.newNs)/1e6)
		startMs = append(startMs, float64(r.counts.startNs)/1e6)
		allocs = append(allocs, float64(r.allocs)/tracePkts)
	}
	l.nsPerPkt, l.submitNs, l.drainMs = median(ns), median(sub), median(drain)
	l.newMs, l.startMs, l.allocs = median(newMs), median(startMs), median(allocs)
	if withTraced {
		ps := b.spans.begin("phase:"+name+"-traced", 0, 0)
		sp.poll = true
		l.traced, ok = b.round(ps, sp, 0, true, false)
		b.spans.end(ps)
	}
	return l, ok
}

// execOnly times the bytecode VM alone over the trace on one goroutine,
// against a fresh register file per pass, and checks each pass's final
// registers. It returns the median ns per packet.
func (b *bench) execOnly(budget time.Duration) (float64, error) {
	bp, err := bytecode.Compile(b.prog)
	if err != nil {
		return 0, err
	}
	vm := bytecode.NewVM(bp)
	env := ir.NewEnv(b.prog)
	var per []float64
	var spent int64
	for pass := 0; spent < int64(budget) || pass < 5; pass++ {
		regs := banzai.NewRegFile(b.prog)
		t0 := clock()
		for i := range b.trace {
			env.ResetFor(b.trace[i].Fields)
			for si := range bp.Stages {
				if err := vm.ExecStage(&bp.Stages[si], env, regs); err != nil {
					return 0, fmt.Errorf("exec-only: %w", err)
				}
			}
		}
		d := clock() - t0
		if err := b.ref.checkRegs(regs.Snapshot()); err != nil {
			return 0, fmt.Errorf("exec-only: %w", err)
		}
		b.attempted += tracePkts
		spent += d
		per = append(per, float64(d)/tracePkts)
	}
	return median(per), nil
}
