package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"mp5/internal/apps"
	"mp5/internal/core"
	"mp5/internal/ir"
	"mp5/internal/workload"
)

// smallTrace is a short trace of the write-heavy workload with its program
// and reference.
func smallTrace(t *testing.T, n int) (workloadDef, *ir.Program, []core.Arrival, reference) {
	t.Helper()
	wl, ok := findWorkload("screp-writeheavy")
	if !ok {
		t.Fatal("no screp-writeheavy workload")
	}
	prog, err := compileSource(apps.SyntheticSource(wl.stateful, wl.regSize))
	if err != nil {
		t.Fatal(err)
	}
	trace := workload.Synthetic(prog, workload.Spec{Packets: n, Pipelines: 4, Seed: 5, Pattern: wl.pattern},
		wl.stateful, wl.regSize)
	return wl, prog, trace, newReference(prog, trace)
}

// recordOn runs trace once through a recording system and returns it.
func recordOn(t *testing.T, sys string, prog *ir.Program, trace []core.Arrival) *instance {
	t.Helper()
	done := make([]int64, len(trace))
	in, err := start(spec{sys: sys, workers: workers, prog: prog, record: true}, trace, encodeFrames(trace), done)
	if err != nil {
		t.Fatal(err)
	}
	for lo := 0; lo < len(trace); lo += chunk {
		if err := in.submit(lo, min(lo+chunk, len(trace)), nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := in.finish(); err != nil {
		t.Fatal(err)
	}
	for i, d := range done {
		if d == 0 {
			t.Fatalf("%s: packet %d never completed", sys, i)
		}
	}
	return in
}

// TestRecordingRunCatchesWrongReference also checks, on the wire, that the
// daemon admitted every frame the sender emitted, in order, and dropped none;
// recordOn has already checked that every frame was acked.
func TestRecordingRunCatchesWrongReference(t *testing.T) {
	_, prog, trace, ref := smallTrace(t, 3000)
	for _, sys := range []string{sysSharded, sysScrep, sysWire} {
		in := recordOn(t, sys, prog, trace)
		regs, outs, order := in.finalRegs, in.outputs(), in.accessOrders()
		if err := ref.checkRecorded(regs, outs, order); err != nil {
			t.Fatalf("%s: true reference rejected: %v", sys, err)
		}
		if sys == sysWire {
			if err := checkAdmitted(trace, in.srv.Admitted()); err != nil {
				t.Error(err)
			}
			if in.counts.dropped != 0 {
				t.Errorf("daemon dropped %d frames", in.counts.dropped)
			}
		}

		bad := newReferenceCopy(ref)
		bad.regs[1][7]++
		if err := bad.checkRecorded(regs, outs, order); err == nil {
			t.Errorf("%s: wrong register in the reference not caught", sys)
		}
		if err := bad.checkRegs(regs); err == nil {
			t.Errorf("%s: checkRegs missed a wrong register", sys)
		}

		bad = newReferenceCopy(ref)
		bad.outputs[42][0]++
		if err := bad.checkRecorded(regs, outs, order); err == nil {
			t.Errorf("%s: wrong output in the reference not caught", sys)
		}

		bad = newReferenceCopy(ref)
		for slot, ids := range bad.order {
			if len(ids) > 1 {
				ids[0], ids[1] = ids[1], ids[0]
				bad.order[slot] = ids
				break
			}
		}
		if err := bad.checkRecorded(regs, outs, order); err == nil {
			t.Errorf("%s: swapped C1 order in the reference not caught", sys)
		}
	}
}

// newReferenceCopy deep-copies a reference so a test can corrupt it.
func newReferenceCopy(r reference) reference {
	c := reference{outputs: map[int64][]int64{}, order: map[string][]int64{}}
	for _, row := range r.regs {
		c.regs = append(c.regs, append([]int64(nil), row...))
	}
	for k, v := range r.outputs {
		c.outputs[k] = append([]int64(nil), v...)
	}
	for k, v := range r.order {
		c.order[k] = append([]int64(nil), v...)
	}
	return c
}

func TestPacedWireRoundAcksEveryFrame(t *testing.T) {
	wl, prog, trace, _ := smallTrace(t, 2000)
	b := benchOn(wl, prog, trace)
	st, ok := b.round(0, spec{sys: sysWire, workers: workers}, 50_000, false, true)
	if !ok {
		t.Fatalf("paced round failed: %v", b.errs)
	}
	if st.ticks != len(trace)/50 {
		t.Fatalf("%d ticks for %d packets at 50 per tick", st.ticks, len(trace))
	}
	if st.heapBytes <= 0 {
		t.Fatalf("round retained %d heap bytes with the daemon still referenced", st.heapBytes)
	}
	if st.p50 <= 0 || st.p99 < st.p50 {
		t.Fatalf("latency p50 %v p99 %v", st.p50, st.p99)
	}
}

// checkAdmitted confirms the daemon admitted exactly the trace, in order.
func checkAdmitted(trace, admitted []core.Arrival) error {
	if len(admitted) != len(trace) {
		return fmt.Errorf("daemon admitted %d packets, sent %d", len(admitted), len(trace))
	}
	for i := range trace {
		if !slices.Equal(admitted[i].Fields, trace[i].Fields) {
			return fmt.Errorf("daemon admitted packet %d as %v, sent %v", i, admitted[i].Fields, trace[i].Fields)
		}
	}
	return nil
}

// benchmarkFile is the part of BENCHMARK.json the benchmark must agree with.
type benchmarkFile struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func TestRunsEmitExactlyTheDeclaredMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full benchmark twice")
	}
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the benchmark has %d", len(bf.Workloads), len(workloads))
	}
	for _, w := range bf.Workloads {
		if wl, ok := findWorkload(w.Name); !ok || wl.why != w.Why {
			t.Fatalf("BENCHMARK.json workload %q: not in the benchmark, or its why differs", w.Name)
		}
	}
	gated, _ := findWorkload(bf.Workloads[0].Name)
	for _, run := range []struct {
		traced   bool
		declared []struct{ Name, Unit string }
	}{{false, bf.EndToEnd}, {true, bf.PerLayer}} {
		b, err := newBench(gated, 3, run.traced)
		if err != nil {
			t.Fatal(err)
		}
		var res result
		if run.traced {
			res = b.runTraced(time.Second)
		} else {
			res = b.runUntraced(time.Second)
		}
		if !res.Correct {
			t.Fatalf("traced=%v: %v", run.traced, b.errs)
		}
		if err := checkDeclared(res.Metrics, run.declared); err != nil {
			t.Errorf("traced=%v: %v", run.traced, err)
		}
	}
}

func checkDeclared(got map[string]metric, declared []struct{ Name, Unit string }) error {
	var problems []string
	for _, d := range declared {
		m, ok := got[d.Name]
		switch {
		case !ok:
			problems = append(problems, d.Name+" missing")
		case m.Unit != d.Unit:
			problems = append(problems, d.Name+" unit "+m.Unit+", declared "+d.Unit)
		}
	}
	if len(got) != len(declared) {
		problems = append(problems, "undeclared metrics emitted")
	}
	if len(problems) > 0 {
		return errors.New(strings.Join(problems, "; "))
	}
	return nil
}
