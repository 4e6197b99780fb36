package main

import (
	"fmt"
	"slices"
	"sort"

	"mp5/internal/core"
	"mp5/internal/equiv"
	"mp5/internal/ir"
)

// reference is the single-pipeline execution of one trace: final registers,
// per-packet outputs keyed by arrival index, and the per-slot C1 access
// order. It is computed once per run, outside every timer.
type reference struct {
	regs    [][]int64
	outputs map[int64][]int64
	order   map[string][]int64
}

func newReference(prog *ir.Program, trace []core.Arrival) reference {
	regs, outs := equiv.Reference(prog, trace)
	return reference{regs: regs, outputs: outs, order: equiv.ReferenceOrder(prog, trace)}
}

// checkRegs compares final register state against the reference.
func (r reference) checkRegs(got [][]int64) error {
	if len(got) != len(r.regs) {
		return fmt.Errorf("final registers: %d arrays, reference has %d", len(got), len(r.regs))
	}
	for i := range r.regs {
		if len(got[i]) != len(r.regs[i]) {
			return fmt.Errorf("final registers: reg%d has %d slots, reference has %d", i, len(got[i]), len(r.regs[i]))
		}
		for j, want := range r.regs[i] {
			if got[i][j] != want {
				return fmt.Errorf("final registers: reg%d[%d] = %d, reference %d", i, j, got[i][j], want)
			}
		}
	}
	return nil
}

// checkRecorded holds a recording run to the full contract: final state,
// every packet's output fields, and every slot's access order (C1).
func (r reference) checkRecorded(regs [][]int64, outs map[int64][]int64, order map[string][]int64) error {
	if err := r.checkRegs(regs); err != nil {
		return err
	}
	if len(outs) != len(r.outputs) {
		return fmt.Errorf("outputs: %d packets, reference has %d", len(outs), len(r.outputs))
	}
	for id, want := range r.outputs {
		got, ok := outs[id]
		if !ok {
			return fmt.Errorf("outputs: packet %d missing", id)
		}
		if !slices.Equal(got, want) {
			return fmt.Errorf("outputs: packet %d = %v, reference %v", id, got, want)
		}
	}
	if len(order) != len(r.order) {
		return fmt.Errorf("C1 order: %d slots accessed, reference has %d", len(order), len(r.order))
	}
	slots := make([]string, 0, len(r.order))
	for s := range r.order {
		slots = append(slots, s)
	}
	sort.Strings(slots)
	for _, s := range slots {
		if !slices.Equal(order[s], r.order[s]) {
			return fmt.Errorf("C1 order: slot %s differs from the reference", s)
		}
	}
	return nil
}
