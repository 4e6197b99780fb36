package dataplane

import (
	"math/rand"
	"sync/atomic"

	"mp5/internal/banzai"
	"mp5/internal/ir"
	"mp5/internal/ir/bytecode"
)

// Quota is a tenant-level admission token counter layered in front of the
// engine's (shared) window semaphore: the admitter takes quota tokens
// non-blocking *before* it blocks on the window, so a tenant that exhausted
// its quota sheds instead of stalling the serial admit loop — the
// noisy-neighbor isolation point. A Quota outlives any one program version:
// hot swap moves a tenant to a new Handle while in-flight packets of the old
// version still hold (and will return) the same quota's tokens.
//
// tryAcquire is admitter-serial; release runs on egressing workers — the CAS
// loop keeps the pair race-free without a lock on the egress path.
type Quota struct {
	cap  int64
	used atomic.Int64
}

// NewQuota builds a quota of n admission tokens. n <= 0 returns nil, the
// unlimited quota (every quota check is a nil test on the hot path).
func NewQuota(n int) *Quota {
	if n <= 0 {
		return nil
	}
	return &Quota{cap: int64(n)}
}

// tryAcquire takes up to want tokens without blocking and returns how many
// it got (0 = quota exhausted: the caller sheds).
func (q *Quota) tryAcquire(want int64) int64 {
	for {
		u := q.used.Load()
		free := q.cap - u
		if free <= 0 {
			return 0
		}
		n := want
		if n > free {
			n = free
		}
		if q.used.CompareAndSwap(u, u+n) {
			return n
		}
	}
}

// release returns n tokens (worker-side at egress, admitter-side at
// abort-retirement).
func (q *Quota) release(n int64) { q.used.Add(-n) }

// Cap returns the quota size.
func (q *Quota) Cap() int64 { return q.cap }

// InUse returns the tokens currently held (any goroutine).
func (q *Quota) InUse() int64 { return q.used.Load() }

// Handle is one loaded program's isolated runtime namespace on a shared
// engine: its compiled form, its ticket queues and shard placement, one
// private register file per worker, and its own packet/env frame pool (envs
// are program-shaped — ir.Env.ResetFor preserves seed-once frame pools — so
// packets are never recycled across programs). Every mutable structure the
// single-program engine used to hold globally lives here, keyed by
// (handle, register) instead of (register) — the multi-tenant refactor.
//
// A Handle is immutable after AddProgram publishes it except for the
// structures its own packets flow through, each with its existing ownership
// rule: slots (admitter enqueues / owning worker pops, under the slot
// mutex), shard counters and owner arrays (admitter-only, snapshots under
// placeMu), wregs (owning worker, plus remap's migrate under the slot
// mutex), the free list (its own mutex), and the atomics.
type Handle struct {
	e       *Engine
	name    string
	version int
	prog    *ir.Program

	accByStage [][]int
	// admRegs backs resolution-stage execution on the admitter (stateless
	// by construction, so only read-only match tables are consulted).
	admRegs *banzai.RegFile
	// bc/admVM are this program's compiled form and the admitter's operand
	// stack for it; wvms are the per-worker VMs (VMs are not
	// goroutine-safe). All nil under Config.Interpret.
	bc    *bytecode.Program
	admVM *bytecode.VM
	wvms  []*bytecode.VM
	// wregs[i] is worker i's private register file for this program — the
	// per-tenant register namespace. Only the indices the shard map assigns
	// to worker i hold the live copy.
	wregs []*banzai.RegFile

	slots map[slotKey]*slotState
	shard []regShard

	quota *Quota

	// free is this program's packet free list.
	free *FreeList[packet]

	// record mirrors RecordOutputs||RecordAccessOrder: when set, idSeq
	// accumulates the global packet ids admitted through this handle, in
	// admission order. Per-handle verification (OutputsFor/AccessOrdersFor)
	// uses it to remap global ids to the dense per-handle arrival indices
	// 0..n-1 the single-pipeline reference keys by. Admitter-written, read
	// after Drain.
	record bool
	idSeq  []int64

	submitted atomic.Int64
	completed atomic.Int64
	shed      atomic.Int64
}

// newHandle builds (but does not publish) a handle for prog.
func newHandle(e *Engine, name string, version int, prog *ir.Program, quota *Quota) *Handle {
	if len(prog.Accesses) > 0 && prog.ResolutionStages == 0 {
		panic("dataplane: program has state accesses but no resolution stages (compile for TargetMP5)")
	}
	h := &Handle{
		e:          e,
		name:       name,
		version:    version,
		prog:       prog,
		accByStage: prog.AccessesByStage(),
		admRegs:    banzai.NewRegFile(prog),
		quota:      quota,
		record:     e.cfg.RecordOutputs || e.cfg.RecordAccessOrder,
	}
	h.free = e.NewFreeList()
	if !e.cfg.Interpret {
		h.bc = bytecode.MustCompile(prog)
		h.admVM = bytecode.NewVM(h.bc)
		h.wvms = make([]*bytecode.VM, e.k)
		for i := range h.wvms {
			h.wvms[i] = bytecode.NewVM(h.bc)
		}
	}
	h.wregs = make([]*banzai.RegFile, e.k)
	for i := range h.wregs {
		h.wregs[i] = banzai.NewRegFile(prog)
	}
	// Seed != 0 selects the seeded placement policy: the balanced
	// round-robin assignment, deterministically shuffled per array. The
	// version offset keeps every handle's placement deterministic while
	// still distinct across program versions; the first handle (version 0)
	// reproduces the single-program engine's placement exactly.
	var placeRng *rand.Rand
	if e.cfg.Seed != 0 {
		placeRng = rand.New(rand.NewSource(e.cfg.Seed + int64(version)))
	}
	h.slots = make(map[slotKey]*slotState)
	h.shard = make([]regShard, len(prog.Regs))
	for r := range prog.Regs {
		info := &prog.Regs[r]
		sh := &h.shard[r]
		sh.sharded = info.Sharded
		sh.size = info.Size
		if sh.sharded {
			sh.owner = make([]int, info.Size)
			sh.count = make([]int64, info.Size)
			for i := range sh.owner {
				sh.owner[i] = i % e.k // round-robin, like sharding.PolicyRoundRobin
			}
			if placeRng != nil {
				placeRng.Shuffle(len(sh.owner), func(i, j int) {
					sh.owner[i], sh.owner[j] = sh.owner[j], sh.owner[i]
				})
			}
			for i := 0; i < info.Size; i++ {
				h.slots[slotKey{r, i}] = &slotState{}
			}
		} else {
			home := 0
			if info.Stage >= 0 {
				home = info.Stage % e.k
			}
			sh.owner = []int{home}
			sh.count = make([]int64, 1)
			h.slots[slotKey{r, -1}] = &slotState{}
		}
	}
	return h
}

// Name returns the name the handle was registered under (the tenant name).
func (h *Handle) Name() string { return h.name }

// Version returns the handle's engine-wide registration sequence number.
func (h *Handle) Version() int { return h.version }

// Program returns the compiled program this handle runs.
func (h *Handle) Program() *ir.Program { return h.prog }

// Quota returns the handle's admission quota (nil = unlimited).
func (h *Handle) Quota() *Quota { return h.quota }

// HandleStats is one handle's live counters, in the shape the admin plane
// serves per tenant.
type HandleStats struct {
	Name      string `json:"name"`
	Version   int    `json:"version"`
	Submitted int64  `json:"submitted"`
	Completed int64  `json:"completed"`
	Shed      int64  `json:"quota_shed"`
	QuotaCap  int64  `json:"quota_cap"`   // 0 = unlimited
	QuotaUsed int64  `json:"quota_inuse"` // tokens held by in-flight packets
}

// Stats snapshots the handle's live counters (any goroutine).
func (h *Handle) Stats() HandleStats {
	st := HandleStats{
		Name:      h.name,
		Version:   h.version,
		Submitted: h.submitted.Load(),
		Completed: h.completed.Load(),
		Shed:      h.shed.Load(),
	}
	if h.quota != nil {
		st.QuotaCap = h.quota.Cap()
		st.QuotaUsed = h.quota.InUse()
	}
	return st
}

// getPacket pops a recycled packet off this handle's free list, or builds a
// fresh one shaped for this handle's program. Admitter-only.
func (h *Handle) getPacket() *packet {
	if p := h.free.Get(); p != nil {
		p.h = h // poison-on-free may have clobbered it
		return p
	}
	return &packet{h: h, env: ir.NewEnv(h.prog)}
}

// putPacket recycles a packet after its last observer is done with it
// (worker-side at egress, admitter-side at abort-retirement). poisonPacket
// is a no-op in release builds; under the mp5debug tag it clobbers the
// packet so any use-after-recycle fails loudly.
func (h *Handle) putPacket(p *packet) {
	poisonPacket(p)
	h.free.Put(p)
}
