package netdist

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"ndgraph/internal/rng"
)

// Worker-side defaults; the coordinator overrides them through initMsg.
const (
	defaultRTO     = 200 * time.Millisecond
	defaultHB      = 100 * time.Millisecond
	defaultCkptOps = 2048
	maxBatch       = 512 // entries per data frame
	helloTimeout   = 5 * time.Second
	dialTimeout    = 2 * time.Second
	connWriteTO    = 5 * time.Second
)

// cmdKind enumerates the compute goroutine's command queue. Everything
// that touches kernel state funnels through this queue, so the kernel
// needs no locking and every checkpoint is a consistent cut.
type cmdKind int

const (
	cmdStart cmdKind = iota
	cmdDeliver
	cmdRepair
	cmdFetch
)

type cmd struct {
	kind   cmdKind
	batch  dataBatch // cmdDeliver
	target int       // cmdRepair
}

// worker is one running partition executor: a kernel plus the networking
// that feeds it. One worker serves exactly one coordinator session; a
// supervised restart builds a fresh worker.
type worker struct {
	id   int
	t    Table
	kern kernel
	algo string
	dir  string
	lo   uint32
	hi   uint32

	rto     time.Duration
	hbEvery time.Duration
	ckptOps int64

	ctx    context.Context
	cancel context.CancelFunc

	coord *frameConn

	// Compute queue: commands first, then the vertex frontier.
	mu       sync.Mutex
	cond     *sync.Cond
	cmds     []cmd
	frontier []uint32
	inQ      []bool

	busy    atomic.Bool
	stopped atomic.Bool

	senders []*peerSender // indexed by worker id; nil for self

	recv    atomic.Int64 // entries delivered to the kernel (incl. local)
	adopted atomic.Int64 // deliveries that improved state
	sentN   atomic.Int64 // entries handed to peer senders
	ackedN  atomic.Int64 // entries in acknowledged batches
	retrans atomic.Int64 // batch retransmissions

	adoptedSinceCkpt int64  // compute goroutine only
	restored         string // which checkpoint generation loaded ("" = cold)
	pendingSeeds     []uint32

	// ckpt hands state snapshots from the compute goroutine to the
	// checkpoint writer: one slot, the latest snapshot wins. ckptPending
	// counts snapshots taken and not yet written or dropped; only the
	// compute goroutine adds to it or waits on it.
	ckpt        chan []uint64
	ckptPending sync.WaitGroup

	wg sync.WaitGroup
}

// RunWorker serves one coordinator session on ln: waits for the
// coordinator's control connection, executes its init/start/…/shutdown
// protocol, and exchanges data frames with peer workers. It returns nil
// after a clean shutdown, or the first fatal error. Canceling ctx is the
// in-process analog of SIGKILL: all goroutines unwind without flushing
// anything.
func RunWorker(ctx context.Context, ln net.Listener) error {
	ctx, cancel := context.WithCancel(ctx)
	w := &worker{ctx: ctx, cancel: cancel, rto: defaultRTO, hbEvery: defaultHB, ckptOps: defaultCkptOps}
	w.cond = sync.NewCond(&w.mu)

	done := make(chan error, 1)
	go func() { <-ctx.Done(); ln.Close(); w.stop() }()
	// The accept loop is itself wg-tracked so its wg.Add for connection
	// handlers can never race a wg.Wait that already observed zero.
	w.wg.Add(1)
	go func() { defer w.wg.Done(); w.acceptLoop(ln, done) }()

	select {
	case err := <-done:
		cancel()
		ln.Close()
		w.stop()
		w.wg.Wait()
		return err
	case <-ctx.Done():
		w.wg.Wait()
		return ctx.Err()
	}
}

// stop wakes and terminates the compute goroutine.
func (w *worker) stop() {
	w.stopped.Store(true)
	w.mu.Lock()
	w.cond.Broadcast()
	w.mu.Unlock()
}

// acceptLoop multiplexes the single listener: the first frame on every
// connection is a hello identifying the dialer as the coordinator or a
// peer worker.
func (w *worker) acceptLoop(ln net.Listener, done chan<- error) {
	for {
		c, err := ln.Accept()
		if err != nil {
			select {
			case done <- nil:
			default:
			}
			return
		}
		w.wg.Add(1)
		go func() {
			defer w.wg.Done()
			fc := newFrameConn(c, 0, connWriteTO)
			_ = c.SetReadDeadline(time.Now().Add(helloTimeout))
			typ, p, err := fc.readFrame()
			_ = c.SetReadDeadline(time.Time{})
			if err != nil || typ != msgHello {
				fc.Close()
				return
			}
			var hello helloMsg
			if json.Unmarshal(p, &hello) != nil {
				fc.Close()
				return
			}
			switch hello.Role {
			case "coord":
				// After cancellation nobody may be receiving: the accept
				// loop's own send can have filled the one-slot channel and
				// RunWorker be in wg.Wait on this very goroutine. Give up
				// on ctx rather than strand the worker (and its partition).
				err := w.serveCoord(fc)
				select {
				case done <- err:
				case <-w.ctx.Done():
				}
			case "peer":
				w.servePeer(fc)
			default:
				fc.Close()
			}
		}()
	}
}

// serveCoord runs the control-plane protocol. The worker's lifetime is
// bound to this connection: when it breaks, the coordinator is gone and
// the worker exits.
func (w *worker) serveCoord(fc *frameConn) error {
	w.coord = fc
	defer fc.Close()
	for {
		typ, p, err := fc.readFrame()
		if err != nil {
			if w.stopped.Load() {
				return nil
			}
			return fmt.Errorf("netdist: worker %d lost coordinator: %w", w.id, err)
		}
		switch typ {
		case msgInit:
			var init initMsg
			if err := json.Unmarshal(p, &init); err != nil {
				return fmt.Errorf("netdist: worker init: %w", err)
			}
			if err := w.initialize(init); err != nil {
				// Tell the coordinator why before hanging up, so its error
				// names the cause rather than the closed connection.
				_ = fc.writeJSON(msgReady, readyMsg{Worker: init.Worker, Err: err.Error()})
				return err
			}
			if err := fc.writeJSON(msgReady, readyMsg{Worker: w.id, Restored: w.restored}); err != nil {
				return err
			}
		case msgStart:
			w.enqueueCmd(cmd{kind: cmdStart})
		case msgProbe:
			var probe struct {
				Epoch int64 `json:"epoch"`
			}
			_ = json.Unmarshal(p, &probe)
			if err := fc.writeJSON(msgProbeRep, w.snapshot(probe.Epoch)); err != nil {
				return err
			}
		case msgRepair:
			var rep repairMsg
			if json.Unmarshal(p, &rep) == nil {
				w.enqueueCmd(cmd{kind: cmdRepair, target: rep.Target})
			}
		case msgPeerUpd:
			var upd peerUpdateMsg
			if json.Unmarshal(p, &upd) == nil && upd.Peer >= 0 && upd.Peer < len(w.senders) {
				if s := w.senders[upd.Peer]; s != nil {
					s.setAddr(upd.Addr)
				}
			}
		case msgFetch:
			w.enqueueCmd(cmd{kind: cmdFetch})
		case msgShutdown:
			w.stop()
			w.cancel()
			return nil
		}
	}
}

// initialize rebuilds the partition state described by init: graph from
// spec, kernel, checkpoint restore when asked, peer senders, heartbeats,
// and the compute goroutine.
func (w *worker) initialize(init initMsg) error {
	t, err := TableFromStarts(init.Starts)
	if err != nil {
		return err
	}
	g, err := init.Graph.Build()
	if err != nil {
		return err
	}
	if t.N() != g.N() {
		return fmt.Errorf("netdist: partition table covers %d vertices, graph has %d", t.N(), g.N())
	}
	w.id = init.Worker
	w.t = t
	w.algo = init.Algo.Name
	w.dir = init.Dir
	w.lo, w.hi = t.Range(w.id)
	if init.RTOMilli > 0 {
		w.rto = time.Duration(init.RTOMilli) * time.Millisecond
	}
	if init.HBMilli > 0 {
		w.hbEvery = time.Duration(init.HBMilli) * time.Millisecond
	}
	if init.CkptOps > 0 {
		w.ckptOps = int64(init.CkptOps)
	}
	w.kern, err = newKernel(init.Algo, g, t, w.id)
	if err != nil {
		return err
	}
	w.inQ = make([]bool, w.hi-w.lo)
	w.pendingSeeds = w.kern.reset()
	if init.Restore {
		ck, gen, ok, err := restoreCheckpoint(w.dir, w.algo, w.id, w.lo, w.hi)
		if err != nil {
			return err
		}
		if ok {
			if err := w.kern.decodeState(ck.Words); err != nil {
				return err
			}
			w.restored = gen
		}
		// Neither generation loadable: cold start from the seeds above —
		// the boundary repair ripple still regenerates everything.
	}
	if w.dir != "" {
		if err := os.MkdirAll(w.dir, 0o755); err != nil {
			return err
		}
	}
	w.senders = make([]*peerSender, t.Parts())
	for p := 0; p < t.Parts(); p++ {
		if p == w.id || p >= len(init.Peers) {
			continue
		}
		s := newPeerSender(w, p, init.Peers[p])
		w.senders[p] = s
		w.wg.Add(1)
		go func() { defer w.wg.Done(); s.run() }()
	}
	w.ckpt = make(chan []uint64, 1)
	w.wg.Add(3)
	go func() { defer w.wg.Done(); w.computeLoop() }()
	go func() { defer w.wg.Done(); w.heartbeatLoop() }()
	go func() { defer w.wg.Done(); w.checkpointLoop() }()
	return nil
}

// servePeer receives data batches from one peer, acking every batch
// unconditionally: the kernel's merge is idempotent, so re-delivery after
// a lost ack is absorbed. A batch is acked only once it is queued, so at
// every instant it sits in the sender's unacked window or in this queue,
// never in neither; quiescence detection counts on that. Acking before
// processing is safe because a crash after the ack rolls the kernel back
// to a checkpoint whose gaps the boundary repair re-fills.
func (w *worker) servePeer(fc *frameConn) {
	defer fc.Close()
	for {
		typ, p, err := fc.readFrame()
		if err != nil {
			return
		}
		if typ != msgData {
			continue
		}
		b, err := decodeBatch(p)
		if err != nil {
			return
		}
		w.enqueueCmd(cmd{kind: cmdDeliver, batch: b})
		if err := fc.writeFrame(msgAck, encodeAck(b.seq)); err != nil {
			return
		}
	}
}

func (w *worker) enqueueCmd(c cmd) {
	w.mu.Lock()
	w.cmds = append(w.cmds, c)
	w.cond.Signal()
	w.mu.Unlock()
}

// schedule puts owned vertex v on the frontier unless already queued.
// Called from the compute goroutine (via emit) only.
func (w *worker) schedule(v uint32) {
	w.mu.Lock()
	if !w.inQ[v-w.lo] {
		w.inQ[v-w.lo] = true
		w.frontier = append(w.frontier, v)
		w.cond.Signal()
	}
	w.mu.Unlock()
}

// emit routes one outgoing update: intra-partition edges short-circuit
// into the kernel, cross-partition edges go to the peer sender.
func (w *worker) emit(e, dst uint32, val uint64) {
	if dst >= w.lo && dst < w.hi {
		_, adopted, sched := w.kern.deliver(e, val)
		w.recv.Add(1)
		if adopted {
			w.adopted.Add(1)
			w.adoptedSinceCkpt++
		}
		if sched {
			w.schedule(dst)
		}
		return
	}
	if s := w.senders[w.t.OwnerOf(dst)]; s != nil {
		s.enqueue(batchEntry{edge: e, val: val})
		w.sentN.Add(1)
	}
}

// computeLoop is the worker's single mutator of kernel state. It drains
// commands before frontier vertices so control actions (start, repair,
// fetch) cannot starve behind a long propagation. A panic in kernel code
// ends the loop and is reported to the coordinator, which ends the run with
// it: in process it would kill the caller, out of process every supervised
// restart would replay it.
func (w *worker) computeLoop() {
	cur := int64(-1) // the vertex whose update is running
	defer close(w.ckpt)
	defer func() {
		if r := recover(); r != nil && w.coord != nil {
			// A failed write means the control connection is gone, which
			// the coordinator already treats as this worker's death.
			_ = w.coord.writeJSON(msgFailed, failedMsg{Worker: w.id, Vertex: cur, Panic: fmt.Sprint(r), Stack: string(debug.Stack())})
		}
	}()
	for {
		w.mu.Lock()
		for !w.stopped.Load() && len(w.cmds) == 0 && len(w.frontier) == 0 {
			w.busy.Store(false)
			w.cond.Wait()
		}
		if w.stopped.Load() {
			w.mu.Unlock()
			return
		}
		w.busy.Store(true)
		if len(w.cmds) > 0 {
			c := w.cmds[0]
			w.cmds = w.cmds[1:]
			w.mu.Unlock()
			w.handleCmd(c)
			continue
		}
		v := w.frontier[0]
		w.frontier = w.frontier[1:]
		w.inQ[v-w.lo] = false
		w.mu.Unlock()
		cur = int64(v)
		w.kern.process(v, w.emit)
		cur = -1
		w.maybeCheckpoint()
	}
}

func (w *worker) handleCmd(c cmd) {
	switch c.kind {
	case cmdStart:
		if w.restored != "" {
			// Recovery: re-send the boundary outward (peers may have lost
			// everything between our checkpoint and the crash) and
			// re-schedule the owned partition; Theorem 2's ripple does the
			// rest. Peers are repaired inward by the coordinator's
			// msgRepair broadcast.
			w.kern.boundary(func(dst uint32) bool { return dst < w.lo || dst >= w.hi }, w.emit)
			for v := w.lo; v < w.hi; v++ {
				w.schedule(v)
			}
		} else {
			for _, v := range w.pendingSeeds {
				w.schedule(v)
			}
		}
	case cmdDeliver:
		for _, e := range c.batch.entries {
			v, adopted, sched := w.kern.deliver(e.edge, e.val)
			w.recv.Add(1)
			if adopted {
				w.adopted.Add(1)
				w.adoptedSinceCkpt++
			}
			if sched {
				w.schedule(v)
			}
		}
		w.maybeCheckpoint()
	case cmdRepair:
		tLo, tHi := w.t.Range(c.target)
		w.kern.boundary(func(dst uint32) bool { return dst >= tLo && dst < tHi }, w.emit)
	case cmdFetch:
		// The run is over: drop a snapshot not yet written and wait out
		// the one being written, so nothing touches the checkpoint
		// directory once the coordinator has every value.
		select {
		case <-w.ckpt:
			w.ckptPending.Done()
		default:
		}
		w.ckptPending.Wait()
		vals := w.kern.values()
		if w.coord != nil {
			_ = w.coord.writeJSON(msgValues, valuesMsg{Worker: w.id, Lo: w.lo, Values: vals})
		}
	}
}

// maybeCheckpoint snapshots kernel state every ckptOps adoptions and hands
// it to the checkpoint writer. It runs on the compute goroutine between
// commands, so the snapshot is a consistent cut of the partition; the disk
// write and its fsync happen off this goroutine. A snapshot still waiting
// when the next one is taken is replaced: the disk then holds an older
// generation, which restore accepts as it accepts any (even none).
func (w *worker) maybeCheckpoint() {
	if w.dir == "" || w.adoptedSinceCkpt < w.ckptOps {
		return
	}
	w.adoptedSinceCkpt = 0
	words := w.kern.encodeState()
	select {
	case <-w.ckpt: // replaced; its pending count carries over
	default:
		w.ckptPending.Add(1)
	}
	w.ckpt <- words // never blocks: the compute goroutine is the only sender
}

// checkpointLoop writes the snapshots maybeCheckpoint hands over until the
// compute goroutine closes the channel. A killed worker writes nothing more.
func (w *worker) checkpointLoop() {
	for words := range w.ckpt {
		if w.ctx.Err() == nil {
			_ = saveCheckpoint(w.dir, checkpoint{Algo: w.algo, Worker: w.id, Lo: w.lo, Hi: w.hi, Words: words})
		}
		w.ckptPending.Done()
	}
}

// snapshot assembles a quiescence probe reply from the live counters.
func (w *worker) snapshot(epoch int64) probeReplyMsg {
	w.mu.Lock()
	queue := int64(len(w.cmds) + len(w.frontier))
	w.mu.Unlock()
	var unacked int64
	for _, s := range w.senders {
		if s != nil {
			unacked += s.unackedEntries()
		}
	}
	return probeReplyMsg{
		Worker:   w.id,
		Epoch:    epoch,
		QueueLen: queue,
		Busy:     w.busy.Load(),
		Unacked:  unacked,
		Sent:     w.sentN.Load(),
		Acked:    w.ackedN.Load(),
		Recv:     w.recv.Load(),
		Adopted:  w.adopted.Load(),
	}
}

func (w *worker) heartbeatLoop() {
	tick := time.NewTicker(w.hbEvery)
	defer tick.Stop()
	var seq int64
	for {
		select {
		case <-w.ctx.Done():
			return
		case <-tick.C:
		}
		seq++
		w.mu.Lock()
		queue := int64(len(w.cmds) + len(w.frontier))
		w.mu.Unlock()
		var unacked int64
		for _, s := range w.senders {
			if s != nil {
				unacked += s.unackedEntries()
			}
		}
		hb := heartbeatMsg{
			Worker:      w.id,
			Seq:         seq,
			Messages:    w.recv.Load(),
			Adopted:     w.adopted.Load(),
			Retransmits: w.retrans.Load(),
			Unacked:     unacked,
			QueueLen:    queue,
			Busy:        w.busy.Load(),
		}
		if w.coord != nil {
			if err := w.coord.writeJSON(msgHeartbeat, hb); err != nil {
				return // control connection gone; serveCoord exits too
			}
		}
	}
}

// --- peer sender: at-least-once delivery with jittered backoff ---

// peerSender owns the outbound link to one peer: batch accumulation,
// sequence numbers, the unacked window, retransmission with jittered
// exponential backoff, and redial (including retarget after the peer
// restarts at a new address).
type peerSender struct {
	w    *worker
	peer int

	mu       sync.Mutex
	addr     string
	pending  []batchEntry
	unacked  map[uint64]*outBatch
	order    []uint64
	nextSeq  uint64
	conn     *frameConn
	failedAt time.Time
	fails    int

	r    *rng.Xoshiro256StarStar
	kick chan struct{}
}

type outBatch struct {
	b        dataBatch
	attempt  int
	lastSent time.Time
}

func newPeerSender(w *worker, peer int, addr string) *peerSender {
	return &peerSender{
		w: w, peer: peer, addr: addr,
		unacked: make(map[uint64]*outBatch),
		r:       rng.New(rng.Mix64(uint64(w.id)<<32 | uint64(peer)<<1 | 1)),
		kick:    make(chan struct{}, 1),
	}
}

func (s *peerSender) enqueue(e batchEntry) {
	s.mu.Lock()
	s.pending = append(s.pending, e)
	s.mu.Unlock()
	select {
	case s.kick <- struct{}{}:
	default:
	}
}

// setAddr retargets the sender after the peer restarted at a new
// address. The current connection is cut; every unacked batch will be
// retransmitted to the new incarnation, whose merge absorbs whatever the
// old incarnation already applied.
func (s *peerSender) setAddr(addr string) {
	s.mu.Lock()
	s.addr = addr
	s.fails = 0
	if s.conn != nil {
		s.conn.Close()
		s.conn = nil
	}
	for _, ob := range s.unacked {
		ob.attempt = 0 // resend immediately
	}
	s.mu.Unlock()
	select {
	case s.kick <- struct{}{}:
	default:
	}
}

func (s *peerSender) unackedEntries() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := int64(len(s.pending))
	for _, ob := range s.unacked {
		n += int64(len(ob.b.entries))
	}
	return n
}

func (s *peerSender) run() {
	interval := s.w.rto / 4
	if interval <= 0 {
		interval = time.Millisecond
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-s.w.ctx.Done():
			s.mu.Lock()
			if s.conn != nil {
				s.conn.Close()
			}
			s.mu.Unlock()
			return
		case <-s.kick:
		case <-tick.C:
		}
		s.flush()
	}
}

// rtoFor computes the retransmission delay before attempt n (1-based):
// exponential in the attempt count, capped, with ±25% multiplicative
// jitter so a fleet of retransmitting senders does not synchronize.
func (s *peerSender) rtoFor(attempt int) time.Duration {
	shift := attempt - 1
	if shift > 5 {
		shift = 5
	}
	base := s.w.rto << shift
	// Uniform in [0.75, 1.25] × base: Uint64n(base/2+1) includes base/2.
	return base*3/4 + time.Duration(s.r.Uint64n(uint64(base)/2+1))
}

// flush seals pending entries into batches and (re)transmits everything
// due. Send errors drop the connection; the next tick redials.
func (s *peerSender) flush() {
	now := time.Now()
	s.mu.Lock()
	for len(s.pending) > 0 {
		n := len(s.pending)
		if n > maxBatch {
			n = maxBatch
		}
		s.nextSeq++
		ob := &outBatch{b: dataBatch{seq: s.nextSeq, entries: append([]batchEntry(nil), s.pending[:n]...)}}
		s.pending = s.pending[n:]
		s.unacked[ob.b.seq] = ob
		s.order = append(s.order, ob.b.seq)
	}
	var due []*outBatch
	live := s.order[:0]
	for _, seq := range s.order {
		ob, ok := s.unacked[seq]
		if !ok {
			continue
		}
		live = append(live, seq)
		if ob.attempt == 0 || now.Sub(ob.lastSent) >= s.rtoFor(ob.attempt) {
			due = append(due, ob)
		}
	}
	s.order = live
	addr := s.addr
	conn := s.conn
	canDial := s.conn == nil && len(due) > 0 && now.Sub(s.failedAt) >= s.dialBackoffLocked()
	s.mu.Unlock()

	if len(due) == 0 {
		return
	}
	if conn == nil {
		if !canDial {
			return
		}
		c, err := net.DialTimeout("tcp", addr, dialTimeout)
		if err != nil {
			s.mu.Lock()
			s.fails++
			s.failedAt = now
			s.mu.Unlock()
			return
		}
		fc := newFrameConn(c, 0, connWriteTO)
		if err := fc.writeJSON(msgHello, helloMsg{Role: "peer", From: s.w.id}); err != nil {
			fc.Close()
			return
		}
		s.mu.Lock()
		s.conn = fc
		s.fails = 0
		conn = fc
		s.mu.Unlock()
		s.w.wg.Add(1)
		go func() { defer s.w.wg.Done(); s.readAcks(fc) }()
	}
	for _, ob := range due {
		s.mu.Lock()
		if _, stillUnacked := s.unacked[ob.b.seq]; !stillUnacked {
			s.mu.Unlock()
			continue
		}
		ob.attempt++
		ob.lastSent = time.Now()
		retransmit := ob.attempt > 1
		s.mu.Unlock()
		if retransmit {
			s.w.retrans.Add(1)
		}
		if err := conn.writeFrame(msgData, encodeBatch(ob.b)); err != nil {
			s.dropConn(conn)
			return
		}
	}
}

// dialBackoffLocked returns the wait before the next dial attempt after
// consecutive failures (jittered exponential, capped at ~2s).
func (s *peerSender) dialBackoffLocked() time.Duration {
	if s.fails == 0 {
		return 0
	}
	shift := s.fails - 1
	if shift > 4 {
		shift = 4
	}
	base := s.w.rto / 2 << shift
	if base > 2*time.Second {
		base = 2 * time.Second
	}
	return base*3/4 + time.Duration(s.r.Uint64n(uint64(base)/2+1))
}

func (s *peerSender) dropConn(fc *frameConn) {
	fc.Close()
	s.mu.Lock()
	if s.conn == fc {
		s.conn = nil
	}
	s.mu.Unlock()
}

// readAcks drains acknowledgements from one connection, retiring batches
// from the unacked window.
func (s *peerSender) readAcks(fc *frameConn) {
	for {
		typ, p, err := fc.readFrame()
		if err != nil {
			s.dropConn(fc)
			return
		}
		if typ != msgAck {
			continue
		}
		seq, err := decodeAck(p)
		if err != nil {
			s.dropConn(fc)
			return
		}
		s.mu.Lock()
		if ob, ok := s.unacked[seq]; ok {
			delete(s.unacked, seq)
			s.w.ackedN.Add(int64(len(ob.b.entries)))
		}
		s.mu.Unlock()
	}
}
