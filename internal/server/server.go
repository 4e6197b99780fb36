// Package server wraps the concurrent dataplane (internal/dataplane) in an
// always-on network daemon — the runtime half of the paper's system: a
// compiled MP5 program plus an engine that admits an unbounded packet
// stream, with the D2 remap heuristic running against live access counters
// while operators observe it.
//
// Topology:
//
//	UDP datagrams ─┐                                  ┌─ worker 0
//	               ├─ decode ─→ ingress queue ─→ admit ├─ worker 1   (dataplane)
//	TCP streams  ──┘  (per-conn goroutines)  (serial)  └─ worker k-1
//
// The bounded ingress queue is the explicit backpressure point in front of
// the engine's admission window: UDP producers either drop at the queue
// (PolicyDrop — overload sheds load, never stalls) or block the reader
// (PolicyBlock); TCP producers always block, which propagates backpressure
// to the client through TCP flow control — the lossless mode. A single
// admit goroutine consumes the queue, preserving the serial-admitter
// contract that defines C1 order, and the engine's window semaphore is the
// live admission-control gate in front of D4 ticketing.
//
// An HTTP admin plane serves /metrics (Prometheus text), /healthz
// (watchdog-backed), and /shardmap (live D2 index→pipeline ownership).
// Shutdown drains gracefully: stop ingesting, let every in-flight packet
// egress, deliver trailing acks, then join.
package server

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"net"
	"net/http"
	"reflect"
	"sync"
	"sync/atomic"
	"time"

	"mp5/internal/core"
	"mp5/internal/dataplane"
	"mp5/internal/equiv"
	"mp5/internal/ir"
	"mp5/internal/telemetry"
	"mp5/internal/tenant"
)

// Policy selects what a UDP producer does when the ingress queue is full.
type Policy int

const (
	// PolicyDrop sheds load at the ingress queue: the datagram is counted
	// (server_ingress_dropped_total) and discarded, and the reader keeps
	// consuming — overload can never stall the daemon. The UDP default.
	PolicyDrop Policy = iota
	// PolicyBlock parks the UDP reader until the queue has room, trading
	// kernel-socket-buffer loss for ingress-queue pressure.
	PolicyBlock
)

// ParsePolicy maps the CLI spelling to a Policy.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "drop":
		return PolicyDrop, nil
	case "block":
		return PolicyBlock, nil
	}
	return 0, fmt.Errorf("server: unknown backpressure policy %q (want drop or block)", s)
}

// Config parameterizes a Server.
type Config struct {
	// Engine configures the wrapped dataplane (workers, window, remap
	// interval, placement seed). OnEgress is owned by the server.
	Engine dataplane.Config
	// TCPAddr/UDPAddr are the data-plane listen addresses; "" disables
	// that listener (at least one must be set).
	TCPAddr string
	UDPAddr string
	// AdminAddr is the HTTP admin-plane listen address; "" disables it.
	AdminAddr string
	// IngressCap bounds the ingress queue between the decode goroutines
	// and the serial admitter (default 1024).
	IngressCap int
	// Policy is the UDP overflow behavior (TCP always blocks).
	Policy Policy
	// Verify records the admitted arrival order and turns on the engine's
	// output/access-order recording, so VerifyRecorded can hold the
	// network path to the differential bar after Shutdown. Costs memory
	// proportional to the packet count — a soak/debug mode, not a
	// production default.
	Verify bool
	// Registry receives the server's and engine's metrics; nil creates a
	// private registry (the admin plane always has something to serve).
	Registry *telemetry.Registry
	// Tracer, when non-nil, turns on wire-to-wire span sampling: the
	// decode goroutines take the sampling decision per frame, the server
	// stamps the ingress-queue wait, and the engine stamps everything from
	// the admission window to egress. Nil disables tracing (the hot path
	// pays only nil checks).
	Tracer *dataplane.Tracer
	// SampleInterval is the background gauge sampler's period (queue
	// depths, per-worker occupancy, pps rates, histogram-window rotation);
	// 0 defaults to 250ms.
	SampleInterval time.Duration
}

func (c Config) withDefaults() Config {
	if c.IngressCap <= 0 {
		c.IngressCap = 1024
	}
	if c.Registry == nil {
		c.Registry = telemetry.NewRegistry()
	}
	if c.SampleInterval <= 0 {
		c.SampleInterval = 250 * time.Millisecond
	}
	return c
}

// srvMetrics is the server-level telemetry surface (the engine's own
// counters register alongside it on the same registry).
type srvMetrics struct {
	rx         *telemetry.CounterVec
	decodeErr  *telemetry.Counter
	dropped    *telemetry.Counter
	acks       *telemetry.Counter
	submitFail *telemetry.Counter
	conns      *telemetry.Counter
}

func newSrvMetrics(r *telemetry.Registry) *srvMetrics {
	return &srvMetrics{
		rx:         r.NewCounterVec("server_rx_frames_total", "frames decoded from the network", "proto"),
		decodeErr:  r.NewCounter("server_decode_errors_total", "frames rejected by the codec or field-count check"),
		dropped:    r.NewCounter("server_ingress_dropped_total", "packets shed at the full ingress queue (PolicyDrop)"),
		acks:       r.NewCounter("server_acks_total", "egress acks sent to TCP clients"),
		submitFail: r.NewCounter("server_submit_aborts_total", "admissions refused by an aborted engine"),
		conns:      r.NewCounter("server_conns_total", "TCP connections accepted"),
	}
}

// item is one decoded packet queued for admission; c is nil for UDP, sp is
// nil for unsampled packets. tn is the tenant the frame addressed —
// resolved at decode time, so the admitter never touches the registry's
// name table.
type item struct {
	arr core.Arrival
	tn  *tenant.Tenant
	c   *tcpConn
	seq uint32
	sp  *dataplane.Span
}

// pendingAck remembers where packet id's egress ack goes.
type pendingAck struct {
	c   *tcpConn
	seq uint32
}

// Server is the network daemon: listeners, bounded ingress, the serial
// admitter, the wrapped engine, and the admin plane. Lifecycle: New →
// Start → (serve traffic) → Shutdown, each exactly once.
type Server struct {
	cfg    Config
	prog   *ir.Program // the first tenant's boot program (single-tenant surface)
	eng    *dataplane.Engine
	reg    *tenant.Registry
	met    *srvMetrics
	engMet *dataplane.Metrics
	trc    *dataplane.Tracer

	// startNs anchors uptime reporting (set by Start; 0 before).
	startNs atomic.Int64
	// Background gauge sampler (sampler.go): per-worker occupancy vecs,
	// ticket-queue depths, and pps rates derived from counter deltas.
	mailboxG    *telemetry.GaugeVec
	parkedG     *telemetry.GaugeVec
	ticketG     *telemetry.GaugeVec
	tenantSubG  *telemetry.GaugeVec
	tenantDoneG *telemetry.GaugeVec
	tenantShedG *telemetry.GaugeVec
	tenantQG    *telemetry.GaugeVec
	rxPPS       *telemetry.Gauge
	ackPPS      *telemetry.Gauge
	egPPS       *telemetry.Gauge
	samplerStop chan struct{}
	samplerWg   sync.WaitGroup

	ingress chan item
	closed  chan struct{}

	tcpLn   net.Listener
	udpConn net.PacketConn
	adminLn net.Listener
	admin   *http.Server

	connMu sync.Mutex
	conns  map[*tcpConn]struct{}

	pendMu  sync.Mutex
	pending map[int64]pendingAck

	// verify holds the per-version recorded admission-order traces (Verify
	// only); admitter-owned during the run, read after Shutdown joins it.
	// verifySeen lists the versions in first-traffic order so reports come
	// out deterministically.
	verify     map[*tenant.Version][]core.Arrival
	verifySeen []*tenant.Version

	readerWg sync.WaitGroup // accept loop, per-conn readers, UDP reader
	writerWg sync.WaitGroup // per-conn ack writers
	admitWg  sync.WaitGroup
	adminWg  sync.WaitGroup
	shutOnce sync.Once
	res      *dataplane.Result
}

// TenantProgram is one tenant's boot configuration for NewMulti: a
// compiled program (TargetMP5) plus an optional admission quota in
// in-flight packets (0 = unlimited).
type TenantProgram struct {
	Name  string
	Prog  *ir.Program
	Quota int
}

// New builds a single-tenant server for prog (compiled for TargetMP5, like
// any dataplane program): one tenant named "default" with wire id 0 and no
// quota — clients that never set the frame's tenant field land on it, so
// the pre-multi-tenant wire behavior is preserved. Nothing is bound until
// Start.
func New(prog *ir.Program, cfg Config) (*Server, error) {
	return NewMulti([]TenantProgram{{Name: "default", Prog: prog}}, cfg)
}

// NewMulti builds a multi-tenant server: every tenant gets its own isolated
// program namespace on one shared engine, addressed by the codec frame's
// tenant field (wire ids are assigned in slice order, starting at 0).
// Nothing is bound until Start.
func NewMulti(tenants []TenantProgram, cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if cfg.TCPAddr == "" && cfg.UDPAddr == "" {
		return nil, fmt.Errorf("server: no data-plane listener configured (set TCPAddr and/or UDPAddr)")
	}
	if len(tenants) == 0 {
		return nil, fmt.Errorf("server: no tenant programs configured")
	}
	s := &Server{
		cfg:     cfg,
		prog:    tenants[0].Prog,
		met:     newSrvMetrics(cfg.Registry),
		trc:     cfg.Tracer,
		ingress: make(chan item, cfg.IngressCap),
		closed:  make(chan struct{}),
		conns:   make(map[*tcpConn]struct{}),
		pending: make(map[int64]pendingAck),
		verify:  make(map[*tenant.Version][]core.Arrival),
	}
	engCfg := cfg.Engine
	if cfg.Verify {
		engCfg.RecordOutputs = true
		engCfg.RecordAccessOrder = true
	}
	if engCfg.Metrics == nil {
		engCfg.Metrics = dataplane.NewMetrics(cfg.Registry)
	}
	s.engMet = engCfg.Metrics
	if engCfg.Tracer == nil {
		engCfg.Tracer = cfg.Tracer
	}
	engCfg.OnEgress = s.onEgress
	s.eng = dataplane.NewMulti(engCfg)
	s.reg = tenant.NewRegistry(s.eng)
	for _, tp := range tenants {
		if _, err := s.reg.Add(tp.Name, tp.Prog, tp.Quota); err != nil {
			return nil, err
		}
	}
	s.registerGauges(cfg.Registry)
	return s, nil
}

// Start binds the listeners, launches the engine topology, and begins
// serving. On error every partially bound listener is closed.
func (s *Server) Start() error {
	if s.cfg.TCPAddr != "" {
		ln, err := net.Listen("tcp", s.cfg.TCPAddr)
		if err != nil {
			return err
		}
		s.tcpLn = ln
	}
	if s.cfg.UDPAddr != "" {
		pc, err := net.ListenPacket("udp", s.cfg.UDPAddr)
		if err != nil {
			s.closeListeners()
			return err
		}
		s.udpConn = pc
	}
	if s.cfg.AdminAddr != "" {
		ln, err := net.Listen("tcp", s.cfg.AdminAddr)
		if err != nil {
			s.closeListeners()
			return err
		}
		s.adminLn = ln
		s.admin = &http.Server{Handler: s.adminMux()}
	}

	s.startNs.Store(time.Now().UnixNano())
	s.eng.Start()
	s.samplerStop = make(chan struct{})
	s.samplerWg.Add(1)
	go s.samplerLoop()
	s.admitWg.Add(1)
	go s.admitLoop()
	if s.tcpLn != nil {
		s.readerWg.Add(1)
		go s.acceptLoop()
	}
	if s.udpConn != nil {
		s.readerWg.Add(1)
		go s.udpLoop()
	}
	if s.admin != nil {
		s.adminWg.Add(1)
		go func() {
			defer s.adminWg.Done()
			s.admin.Serve(s.adminLn)
		}()
	}
	return nil
}

func (s *Server) closeListeners() {
	if s.tcpLn != nil {
		s.tcpLn.Close()
	}
	if s.udpConn != nil {
		s.udpConn.Close()
	}
	if s.adminLn != nil {
		s.adminLn.Close()
	}
}

// TCPAddr returns the bound TCP data-plane address ("" when disabled) —
// the actual port, so ":0" configs are test- and script-friendly.
func (s *Server) TCPAddr() string {
	if s.tcpLn == nil {
		return ""
	}
	return s.tcpLn.Addr().String()
}

// UDPAddr returns the bound UDP data-plane address ("" when disabled).
func (s *Server) UDPAddr() string {
	if s.udpConn == nil {
		return ""
	}
	return s.udpConn.LocalAddr().String()
}

// AdminAddr returns the bound admin-plane address ("" when disabled).
func (s *Server) AdminAddr() string {
	if s.adminLn == nil {
		return ""
	}
	return s.adminLn.Addr().String()
}

// admitLoop is the serial admitter: the single goroutine that feeds the
// engine, so admission order — the order C1 is defined by — is exactly the
// ingress-queue order. It registers the egress-ack target under the id the
// engine will assign *before* submitting, closing the race with a packet
// that egresses while Submit is still returning.
func (s *Server) admitLoop() {
	defer s.admitWg.Done()
	// Batch buffers, reused across rounds: one blocking receive starts a
	// round, then whatever else is already queued (up to admitBatch) is
	// drained non-blocking and submitted through the engine's amortized
	// SubmitBatch path — one window acquisition, one ticket-queue lock per
	// slot, one crossbar send per worker for the whole run.
	const admitBatch = 256
	items := make([]item, 0, admitBatch)
	arrs := make([]core.Arrival, 0, admitBatch)
	spans := make([]*dataplane.Span, 0, admitBatch)
	for {
		it, ok := <-s.ingress
		if !ok {
			return
		}
		items = append(items[:0], it)
		closing := false
		for len(items) < admitBatch {
			select {
			case it2, ok2 := <-s.ingress:
				if !ok2 {
					closing = true
				} else {
					items = append(items, it2)
					continue
				}
			default:
			}
			break
		}
		// Split the drained batch into consecutive same-tenant runs: each
		// run admits on one version snapshot, so the per-tenant ticket
		// order — hence C1 within a version — is exactly ingress order.
		for lo := 0; lo < len(items); {
			hi := lo + 1
			for hi < len(items) && items[hi].tn == items[lo].tn {
				hi++
			}
			s.admitItems(items[lo:hi], arrs[:0], spans[:0])
			lo = hi
		}
		if closing {
			return
		}
	}
}

// admitItems submits one coalesced same-tenant run: snapshots the tenant's
// active version ONCE — the swap epoch; everything in this run is admitted
// on that version even if a hot swap lands mid-run — registers every
// packet's ack target under the dense ids the engine will assign *before*
// submitting (closing the race with a packet that egresses while
// SubmitBatch is still returning), then unregisters the tail the engine
// refused. A refusal is either an engine abort (watchdog stall, counted as
// a submit abort) or a tenant-quota shed (counted by the engine); either
// way a refused TCP frame is never acked — the client's ack timeout is the
// shed signal in lossless mode.
func (s *Server) admitItems(items []item, arrs []core.Arrival, spans []*dataplane.Span) {
	v := items[0].tn.Active()
	id0 := s.eng.NextID()
	s.pendMu.Lock()
	for i := range items {
		// Close the sampled packet's first segment: everything since the
		// decode stamp was time queued in the ingress channel.
		items[i].sp.Advance(dataplane.StageIngressWait, -1)
		if items[i].c != nil {
			s.pending[id0+int64(i)] = pendingAck{items[i].c, items[i].seq}
		}
		arrs = append(arrs, items[i].arr)
		spans = append(spans, items[i].sp)
	}
	s.pendMu.Unlock()
	n := s.eng.SubmitBatchTo(v.Handle, arrs, spans)
	if n < len(items) {
		s.pendMu.Lock()
		for i := n; i < len(items); i++ {
			if items[i].c != nil {
				delete(s.pending, id0+int64(i))
			}
		}
		s.pendMu.Unlock()
		if s.eng.Stalled() {
			s.met.submitFail.Add(int64(len(items) - n))
		}
	}
	if s.cfg.Verify {
		trace, seen := s.verify[v]
		if !seen {
			s.verifySeen = append(s.verifySeen, v)
		}
		for i := 0; i < n; i++ {
			a := items[i].arr
			a.Cycle = int64(len(trace))
			trace = append(trace, a)
		}
		s.verify[v] = trace
	}
}

// onEgress runs on the egressing worker: look up the packet's ack target
// and hand the ack to that connection's writer.
func (s *Server) onEgress(id int64) {
	s.pendMu.Lock()
	pa, ok := s.pending[id]
	if ok {
		delete(s.pending, id)
	}
	s.pendMu.Unlock()
	if ok {
		pa.c.ack(pa.seq)
		s.met.acks.Inc()
	}
}

// udpLoop decodes datagrams and applies the backpressure policy at the
// ingress queue. Drop mode never blocks: overload sheds load here, visibly
// (server_ingress_dropped_total), and nowhere else.
func (s *Server) udpLoop() {
	defer s.readerWg.Done()
	buf := make([]byte, frameHeader+maxPayload)
	for {
		n, _, err := s.udpConn.ReadFrom(buf)
		if err != nil {
			select {
			case <-s.closed:
				return
			default:
			}
			// Transient datagram errors (e.g. oversized) are countable;
			// anything after Close ends the loop above.
			s.met.decodeErr.Inc()
			continue
		}
		seq, tid, arr, err := decodeDatagram(buf[:n])
		if err != nil {
			s.met.decodeErr.Inc()
			continue
		}
		tn := s.reg.ByID(tid)
		if tn == nil || len(arr.Fields) != len(tn.Active().Prog.Fields) {
			s.met.decodeErr.Inc()
			continue
		}
		_ = seq // UDP is ackless; seq is carried for symmetry only
		s.met.rx.Inc("udp")
		it := item{arr: arr, tn: tn}
		if sp := s.trc.Sample(); sp != nil {
			sp.Proto = "udp"
			it.sp = sp
		}
		if s.cfg.Policy == PolicyDrop {
			select {
			case s.ingress <- it:
			default:
				s.met.dropped.Inc()
			}
		} else {
			select {
			case s.ingress <- it:
			case <-s.closed:
				return
			}
		}
	}
}

// acceptLoop accepts TCP connections until the listener closes.
func (s *Server) acceptLoop() {
	defer s.readerWg.Done()
	for {
		c, err := s.tcpLn.Accept()
		if err != nil {
			return
		}
		s.met.conns.Inc()
		tc := newTCPConn(c)
		s.connMu.Lock()
		s.conns[tc] = struct{}{}
		s.connMu.Unlock()
		s.writerWg.Add(1)
		go s.writeLoop(tc)
		s.readerWg.Add(1)
		go s.readLoop(tc)
	}
}

// readLoop decodes frames off one TCP connection and feeds the ingress
// queue, blocking when it is full — that block, propagated by TCP flow
// control, is the lossless backpressure path. A clean client half-close
// (EOF) ends reading but keeps the connection and its ack writer alive, so
// trailing acks for in-flight packets still reach the client.
func (s *Server) readLoop(tc *tcpConn) {
	defer s.readerWg.Done()
	br := bufio.NewReaderSize(tc.c, 1<<16)
	for {
		seq, tid, arr, err := readFrame(br)
		if err != nil {
			return
		}
		tn := s.reg.ByID(tid)
		if tn == nil || len(arr.Fields) != len(tn.Active().Prog.Fields) {
			s.met.decodeErr.Inc()
			continue
		}
		s.met.rx.Inc("tcp")
		it := item{arr: arr, tn: tn, c: tc, seq: seq}
		if sp := s.trc.Sample(); sp != nil {
			sp.Proto = "tcp"
			it.sp = sp
		}
		// Plain send: the admitter consumes until the queue closes, which
		// happens only after this goroutine exits (Shutdown ordering).
		s.ingress <- it
	}
}

// writeLoop delivers egress acks for one connection, batching flushes when
// the ack channel runs dry. A write error retires the connection: the
// stream is broken, so readers and pending acks for it are abandoned.
func (s *Server) writeLoop(tc *tcpConn) {
	defer s.writerWg.Done()
	bw := bufio.NewWriterSize(tc.c, 1<<12)
	var buf [ackBytes]byte
	write := func(seq uint32) bool {
		binary.BigEndian.PutUint32(buf[:], seq)
		if _, err := bw.Write(buf[:]); err != nil {
			return false
		}
		if len(tc.acks) == 0 {
			return bw.Flush() == nil
		}
		return true
	}
	for {
		select {
		case seq := <-tc.acks:
			if !write(seq) {
				tc.shutdown()
				s.dropConn(tc)
				return
			}
		case <-tc.done:
			for {
				select {
				case seq := <-tc.acks:
					if !write(seq) {
						return
					}
				default:
					bw.Flush()
					return
				}
			}
		}
	}
}

func (s *Server) dropConn(tc *tcpConn) {
	s.connMu.Lock()
	delete(s.conns, tc)
	s.connMu.Unlock()
}

// Shutdown drains the daemon gracefully and returns the engine's run
// summary: stop ingesting (close listeners, abort connection reads), let
// the admitter finish the queued backlog, drain every in-flight packet out
// of the engine, flush trailing acks, then stop the admin plane. Safe to
// call once; SIGTERM handling in cmd/mp5d is a thin wrapper around it.
func (s *Server) Shutdown() *dataplane.Result {
	s.shutOnce.Do(func() {
		close(s.closed)
		s.closeListeners()
		// Abort in-progress reads without closing the connections: the
		// write half stays up for trailing acks.
		s.connMu.Lock()
		for tc := range s.conns {
			tc.c.SetReadDeadline(time.Now())
		}
		s.connMu.Unlock()
		s.readerWg.Wait()
		close(s.ingress)
		s.admitWg.Wait()
		s.res = s.eng.Drain()
		// All egresses (and their acks) have been issued; let the writers
		// flush and close the connections.
		s.connMu.Lock()
		conns := make([]*tcpConn, 0, len(s.conns))
		for tc := range s.conns {
			conns = append(conns, tc)
		}
		s.connMu.Unlock()
		for _, tc := range conns {
			tc.shutdown()
		}
		s.writerWg.Wait()
		if s.admin != nil {
			s.admin.Close()
			s.adminWg.Wait()
		}
		if s.samplerStop != nil {
			close(s.samplerStop)
			s.samplerWg.Wait()
		}
	})
	return s.res
}

// Admitted returns the recorded admission-order trace of the first
// tenant's boot version (Verify mode only; valid after Shutdown) — the
// whole trace on a single-tenant daemon that never swapped.
func (s *Server) Admitted() []core.Arrival {
	if t := s.reg.ByID(0); t != nil {
		if vs := t.Versions(); len(vs) > 0 {
			return s.verify[vs[0]]
		}
	}
	return nil
}

// TenantVerify is one program version's wire-differential verdict: its
// recorded admission trace replayed through the single-pipeline reference
// against what the engine actually did on that version's namespace.
type TenantVerify struct {
	Tenant  string
	Version int
	Packets int
	Report  *equiv.Report
	OrderOK bool
}

// VerifyTenants holds every program version that saw traffic to the
// differential bar, independently: per-version final registers, per-packet
// outputs, and per-slot C1 access order, each against the version's own
// reference — the tenant-isolation and hot-swap correctness oracle. Valid
// after Shutdown of a Verify-mode server.
func (s *Server) VerifyTenants() ([]TenantVerify, error) {
	if !s.cfg.Verify {
		return nil, fmt.Errorf("server: not started in Verify mode")
	}
	if s.res == nil {
		return nil, fmt.Errorf("server: VerifyTenants before Shutdown")
	}
	// Versions carry no back-pointer to their tenant; resolve owner names
	// through the registry so reports say "alpha v2", not the internal
	// handle name "alpha@v2".
	owner := make(map[*tenant.Version]string)
	for _, tn := range s.reg.Tenants() {
		for _, v := range tn.Versions() {
			owner[v] = tn.Name()
		}
	}
	out := make([]TenantVerify, 0, len(s.verifySeen))
	for _, v := range s.verifySeen {
		trace := s.verify[v]
		name := owner[v]
		if name == "" {
			name = v.Handle.Name()
		}
		tv := TenantVerify{
			Tenant:  name,
			Version: v.Seq,
			Packets: len(trace),
			Report:  equiv.CheckState(v.Prog, s.eng.FinalRegsFor(v.Handle), s.eng.OutputsFor(v.Handle), trace),
		}
		tv.OrderOK = reflect.DeepEqual(equiv.ReferenceOrder(v.Prog, trace), s.eng.AccessOrdersFor(v.Handle))
		out = append(out, tv)
	}
	return out, nil
}

// VerifyRecorded is the aggregate differential verdict across every
// version that saw traffic: the first failing version's report (or the
// last report when all pass), plus whether every version's C1 access order
// matched its reference. On a single-tenant daemon that never swapped this
// is exactly the pre-multi-tenant behavior. Valid after Shutdown of a
// Verify-mode server.
func (s *Server) VerifyRecorded() (*equiv.Report, bool, error) {
	tvs, err := s.VerifyTenants()
	if err != nil {
		return nil, false, err
	}
	if len(tvs) == 0 {
		// No traffic: trivially equivalent against an empty trace.
		rep := equiv.CheckState(s.prog, s.eng.FinalRegs(), s.eng.Outputs(), nil)
		return rep, true, nil
	}
	rep, orderOK := tvs[len(tvs)-1].Report, true
	for _, tv := range tvs {
		if !tv.Report.Equivalent {
			rep = tv.Report
		}
		orderOK = orderOK && tv.OrderOK
	}
	return rep, orderOK, nil
}

// Engine exposes the wrapped dataplane engine (health probes, shard map).
func (s *Server) Engine() *dataplane.Engine { return s.eng }

// Tenants exposes the tenant registry (admin plane, hot swap, tests).
func (s *Server) Tenants() *tenant.Registry { return s.reg }

// Dropped returns the ingress-queue drop count (the PolicyDrop counter).
func (s *Server) Dropped() int64 { return s.met.dropped.Value() }

// tcpConn pairs a TCP connection with its ack channel. The buffered
// channel decouples egressing workers from the socket; when it fills (a
// client that stopped reading acks), ack() blocks the worker — which is
// the lossless mode's backpressure, ending in a watchdog abort if the
// client never recovers.
type tcpConn struct {
	c         net.Conn
	acks      chan uint32
	done      chan struct{}
	closeOnce sync.Once
}

func newTCPConn(c net.Conn) *tcpConn {
	return &tcpConn{c: c, acks: make(chan uint32, 4096), done: make(chan struct{})}
}

// ack enqueues one egress ack; after shutdown it is a no-op.
func (tc *tcpConn) ack(seq uint32) {
	select {
	case tc.acks <- seq:
	case <-tc.done:
	}
}

func (tc *tcpConn) shutdown() {
	tc.closeOnce.Do(func() {
		close(tc.done)
		tc.c.Close()
	})
}
