package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"mp5/internal/core"
	"mp5/internal/dataplane"
	"mp5/internal/ir"
	"mp5/internal/screp"
	"mp5/internal/server"
)

// ackTimeout bounds the wait for a round's last ack.
const ackTimeout = 20 * time.Second

// Wire format, as documented in internal/server/codec.go: a big-endian
// uint32 payload length, then seq uint32, tenant uint16, port uint16, size
// uint16, nfields uint16 and nfields big-endian int64 header fields. Acks are
// raw big-endian uint32 sequence numbers.
const (
	framePrefix  = 4
	payloadFixed = 4 + 2 + 2 + 2 + 2
	ackBytes     = 4
)

func frameSize(nfields int) int { return framePrefix + payloadFixed + 8*nfields }

// encodeFrames encodes the trace as back-to-back frames, packet i with
// sequence number i on the default tenant, so any run of packets [lo, hi)
// is one contiguous slice of the result.
func encodeFrames(trace []core.Arrival) []byte {
	if len(trace) == 0 {
		return nil
	}
	n := len(trace[0].Fields)
	out := make([]byte, 0, len(trace)*frameSize(n))
	for i := range trace {
		a := &trace[i]
		out = binary.BigEndian.AppendUint32(out, uint32(payloadFixed+8*len(a.Fields)))
		out = binary.BigEndian.AppendUint32(out, uint32(i))
		out = binary.BigEndian.AppendUint16(out, 0)
		out = binary.BigEndian.AppendUint16(out, uint16(a.Port))
		out = binary.BigEndian.AppendUint16(out, uint16(a.Size))
		out = binary.BigEndian.AppendUint16(out, uint16(len(a.Fields)))
		for _, f := range a.Fields {
			out = binary.BigEndian.AppendUint64(out, uint64(f))
		}
	}
	return out
}

// spec says what to build for one round.
type spec struct {
	sys     string
	workers int
	prog    *ir.Program
	tracer  *dataplane.Tracer // nil = untraced
	record  bool              // record outputs and access order for verification
	poll    bool              // sample queue depths every millisecond
}

// instance is one freshly built, started system. Each packet's completion
// (OnEgress in-process, its ack on the wire) stamps the packet's entry of
// the done slice given to start with the run clock.
type instance struct {
	spec
	trace  []core.Arrival
	frames []byte
	fsz    int

	dp   *dataplane.Engine
	sr   *screp.Engine
	srv  *server.Server
	conn *net.TCPConn
	acks *ackReader

	poller *poller // when spec.poll

	// Filled by finish.
	counts    counts
	finishNs  int64
	finalRegs [][]int64
}

// counts are one round's figures from the system's own counters.
type counts struct {
	steers, parks, wasted, shardMoves int64 // sharded engine, also under the daemon
	deltas, replayed, replayWaitNs    int64 // screp
	dropped                           int64 // daemon ingress drops
	busyNs                            int64 // busiest sharded worker; needs the tracer
	mailboxPeak, ticketPeak, lagPeak  int64 // polled when spec.poll
	newNs, startNs                    int64 // construction timings
}

func (c *counts) addDataplane(r *dataplane.Result) {
	c.steers, c.parks, c.wasted, c.shardMoves = r.Steers, r.Parks, r.Wasted, r.ShardMoves
}

// start builds and starts a system for one round that will offer the
// packets of trace. done must hold a zeroed stamp per packet of trace.
func start(sp spec, trace []core.Arrival, frames []byte, done []int64) (*instance, error) {
	in := &instance{spec: sp, trace: trace, frames: frames}
	if len(trace) > 0 {
		in.fsz = frameSize(len(trace[0].Fields))
	}
	onEgress := func(id int64) {
		if id >= 0 && id < int64(len(done)) {
			done[id] = clock()
		}
	}
	t0 := clock()
	switch sp.sys {
	case sysSharded:
		in.dp = dataplane.New(sp.prog, dataplane.Config{
			Workers: sp.workers, Tracer: sp.tracer, OnEgress: onEgress,
			RecordOutputs: sp.record, RecordAccessOrder: sp.record,
		})
		t1 := clock()
		in.dp.Start()
		in.counts.newNs, in.counts.startNs = t1-t0, clock()-t1
	case sysScrep:
		in.sr = screp.New(sp.prog, screp.Config{
			Workers: sp.workers, Tracer: sp.tracer, OnEgress: onEgress,
			RecordOutputs: sp.record, RecordAccessOrder: sp.record,
		})
		t1 := clock()
		in.sr.Start()
		in.counts.newNs, in.counts.startNs = t1-t0, clock()-t1
	case sysWire:
		srv, err := server.New(sp.prog, server.Config{
			Engine:  dataplane.Config{Workers: sp.workers},
			TCPAddr: "127.0.0.1:0",
			Tracer:  sp.tracer,
			Verify:  sp.record,
		})
		if err != nil {
			return nil, err
		}
		t1 := clock()
		if err := srv.Start(); err != nil {
			return nil, err
		}
		t2 := clock()
		addr, err := net.ResolveTCPAddr("tcp", srv.TCPAddr())
		if err == nil {
			in.conn, err = net.DialTCP("tcp", nil, addr)
		}
		if err != nil {
			srv.Shutdown()
			return nil, fmt.Errorf("dial daemon: %w", err)
		}
		in.srv = srv
		in.acks = newAckReader(in.conn, done, len(trace))
		in.counts.newNs, in.counts.startNs = t1-t0, t2-t1
	default:
		return nil, fmt.Errorf("unknown system %q", sp.sys)
	}
	if sp.poll {
		in.poller = startPoller(in)
	}
	return in, nil
}

// submit offers packets [lo, hi) of the trace as one burst: one SubmitBatch
// in-process, one socket write on the wire. spans, when non-nil, parallels
// the burst (in-process engines only; the daemon samples on its own).
func (in *instance) submit(lo, hi int, spans []*dataplane.Span) error {
	switch {
	case in.dp != nil:
		if n := in.dp.SubmitBatch(in.trace[lo:hi], spans); n != hi-lo {
			return fmt.Errorf("sharded engine admitted %d of %d packets", n, hi-lo)
		}
	case in.sr != nil:
		if n := in.sr.SubmitBatch(in.trace[lo:hi], spans); n != hi-lo {
			return fmt.Errorf("screp engine admitted %d of %d packets", n, hi-lo)
		}
	default:
		if _, err := in.conn.Write(in.frames[lo*in.fsz : hi*in.fsz]); err != nil {
			return fmt.Errorf("send frames: %w", err)
		}
	}
	return nil
}

// finish waits for every offered packet to complete, then drains and tears
// the system down. finishNs times the drain: Drain in-process, the wait for
// the last ack plus Shutdown on the wire.
func (in *instance) finish() error {
	t0 := clock()
	var err error
	switch {
	case in.dp != nil:
		res := in.dp.Drain()
		if res.Stalled {
			err = errors.New("sharded engine stalled")
		}
		in.counts.addDataplane(res)
		in.finalRegs = in.dp.FinalRegs()
	case in.sr != nil:
		res := in.sr.Drain()
		if res.Stalled {
			err = errors.New("screp engine stalled")
		}
		in.counts.deltas, in.counts.replayed = res.DeltasPublished, res.WritesReplayed
		for _, st := range in.sr.ReplicaStats() {
			in.counts.replayWaitNs += st.ReplayWaitNs
		}
		in.finalRegs = in.sr.FinalRegs()
	default:
		err = in.acks.wait(ackTimeout)
		_ = in.conn.CloseWrite() // the daemon sees EOF; a broken stream already failed wait
		in.counts.addDataplane(in.srv.Shutdown())
		<-in.acks.exit
		in.conn.Close()
		in.counts.dropped = in.srv.Dropped()
		in.finalRegs = in.srv.Engine().FinalRegs()
	}
	in.finishNs = clock() - t0
	if in.poller != nil {
		in.poller.stop()
		in.counts.mailboxPeak, in.counts.ticketPeak, in.counts.lagPeak =
			in.poller.mailboxPeak, in.poller.ticketPeak, in.poller.lagPeak
	}
	if eng := in.engine(); eng != nil && in.tracer != nil {
		for _, ws := range eng.WorkerStats() {
			in.counts.busyNs = max(in.counts.busyNs, ws.BusyNs)
		}
	}
	return err
}

// awaitFirst blocks until the round's first packet completed. On the wire
// it waits on the ack reader: spinning would keep a P from ever blocking in
// the network poller, and the ack would then wait for the runtime's
// periodic poll.
func (in *instance) awaitFirst() error {
	if in.acks != nil {
		return in.acks.wait(ackTimeout)
	}
	var completed func() int64
	if in.dp != nil {
		completed = in.dp.Completed
	} else {
		completed = in.sr.Completed
	}
	deadline := clock() + int64(ackTimeout)
	for completed() < 1 {
		if clock() > deadline {
			return fmt.Errorf("first packet not completed within %v", ackTimeout)
		}
		runtime.Gosched()
	}
	return nil
}

// engine returns the sharded engine a system runs on (nil for screp).
func (in *instance) engine() *dataplane.Engine {
	if in.srv != nil {
		return in.srv.Engine()
	}
	return in.dp
}

// outputs and accessOrders return what a recording system saw.
func (in *instance) outputs() map[int64][]int64 {
	if in.sr != nil {
		return in.sr.Outputs()
	}
	return in.engine().Outputs()
}

func (in *instance) accessOrders() map[string][]int64 {
	if in.sr != nil {
		return in.sr.AccessOrders()
	}
	return in.engine().AccessOrders()
}

// ackReader stamps each ack's arrival on the run clock. One read may carry
// many acks; they share the stamp of the read that returned them.
type ackReader struct {
	conn    net.Conn
	done    []int64
	want    int64
	n       atomic.Int64
	reached chan struct{} // closed once want acks arrived
	exit    chan struct{} // closed when the reader returns
	err     error         // read error; valid after exit
}

func newAckReader(conn net.Conn, done []int64, want int) *ackReader {
	a := &ackReader{conn: conn, done: done, want: int64(want),
		reached: make(chan struct{}), exit: make(chan struct{})}
	go a.run()
	return a
}

func (a *ackReader) run() {
	defer close(a.exit)
	buf := make([]byte, 64<<10)
	carry := 0
	var once sync.Once
	for {
		m, err := a.conn.Read(buf[carry:])
		ts := clock()
		m += carry
		k := m / ackBytes * ackBytes
		for off := 0; off < k; off += ackBytes {
			if seq := binary.BigEndian.Uint32(buf[off:]); int(seq) < len(a.done) {
				a.done[seq] = ts
			}
		}
		if a.n.Add(int64(k/ackBytes)) >= a.want {
			once.Do(func() { close(a.reached) })
		}
		carry = copy(buf, buf[k:m])
		if err != nil {
			if err != io.EOF {
				a.err = err
			}
			return
		}
	}
}

// wait blocks until every wanted ack arrived, the stream broke, or the
// timeout expired.
func (a *ackReader) wait(timeout time.Duration) error {
	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case <-a.reached:
		return nil
	case <-a.exit:
		select {
		case <-a.reached:
			return nil
		default:
		}
		return fmt.Errorf("ack stream ended after %d of %d acks: %v", a.n.Load(), a.want, a.err)
	case <-t.C:
		return fmt.Errorf("%d of %d acks within %v", a.n.Load(), a.want, timeout)
	}
}

// poller samples queue depths while a round runs: mailbox and ticket queue
// peaks on the sharded engine, replay lag on screp. Only the ladder's traced
// rounds poll, so the tracing overhead figure does not include it.
type poller struct {
	mailboxPeak, ticketPeak, lagPeak int64
	quit                             chan struct{}
	wg                               sync.WaitGroup
}

func startPoller(in *instance) *poller {
	p := &poller{quit: make(chan struct{})}
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		t := time.NewTicker(time.Millisecond)
		defer t.Stop()
		for {
			p.sample(in)
			select {
			case <-p.quit:
				return
			case <-t.C:
			}
		}
	}()
	return p
}

func (p *poller) sample(in *instance) {
	if in.sr != nil {
		for _, st := range in.sr.ReplicaStats() {
			p.lagPeak = max(p.lagPeak, st.Lag)
		}
		return
	}
	eng := in.engine()
	for _, st := range eng.WorkerStats() {
		p.mailboxPeak = max(p.mailboxPeak, int64(st.Mailbox))
	}
	_, depth := eng.TicketDepths()
	p.ticketPeak = max(p.ticketPeak, depth)
}

// stop ends sampling; the peaks are valid once it returns.
func (p *poller) stop() {
	close(p.quit)
	p.wg.Wait()
}
