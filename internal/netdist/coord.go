package netdist

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"ndgraph/internal/core"
	"ndgraph/internal/obs"
)

// Options configures a distributed run.
type Options struct {
	// Workers is the number of worker processes (default 2).
	Workers int
	// Graph and Algo describe the job; both cross the wire as specs.
	Graph GraphSpec
	Algo  AlgoSpec
	// Launcher starts and stops worker processes. Default: LocalLauncher
	// (in-process goroutine workers on loopback TCP).
	Launcher Launcher
	// Proxy, when set, routes every worker↔worker data link through the
	// fault proxy; coordinator control connections stay direct.
	Proxy *Proxy
	// Dir is the checkpoint root (one subdirectory per worker). Empty
	// uses a temp dir removed after the run.
	Dir string
	// ByEdges partitions by incident-edge balance instead of vertex count.
	ByEdges bool
	// RTO is the base retransmission timeout (default 200ms).
	RTO time.Duration
	// Heartbeat is the worker heartbeat interval (default 100ms);
	// HeartbeatMiss consecutive missed intervals declare a worker dead
	// (default 5).
	Heartbeat     time.Duration
	HeartbeatMiss int
	// CkptOps checkpoints a worker every N adopted updates (default 2048).
	CkptOps int
	// MaxRestarts bounds supervised restarts before the run fails
	// (default 8).
	MaxRestarts int
	// Timeout bounds the whole run (default 120s); it is netdist's
	// divergence guard, where the barrier tiers have StallWindow.
	Timeout time.Duration
	// Observer receives an EngineNetdist summary event plus live
	// per-worker stats and readiness sources. May be nil.
	Observer *obs.Observer
}

func (o *Options) defaults() {
	if o.Workers <= 0 {
		o.Workers = 2
	}
	if o.RTO <= 0 {
		o.RTO = defaultRTO
	}
	if o.Heartbeat <= 0 {
		o.Heartbeat = defaultHB
	}
	if o.HeartbeatMiss <= 0 {
		o.HeartbeatMiss = 5
	}
	if o.MaxRestarts <= 0 {
		o.MaxRestarts = 8
	}
	if o.Timeout <= 0 {
		o.Timeout = 120 * time.Second
	}
}

// Result describes a distributed run. Run returns one on every return, as
// every tier does (core.Lifecycle): Converged is true only for a run that
// reached quiescence, and the counters and Duration describe the work done
// until the run ended.
type Result struct {
	// Values holds the converged per-vertex values: raw labels for WCC,
	// Float64bits distances for BFS/SSSP, Float64bits ranks for PageRank.
	// Nil unless Converged: a stopped run fetches nothing.
	Values []uint64
	// Restarts counts supervised worker restarts; Repairs counts boundary
	// repair messages broadcast after them.
	Restarts int
	Repairs  int
	// Sweeps counts quiescence probe sweeps until termination.
	Sweeps    int
	Converged bool
	Duration  time.Duration

	// Messages and Adopted sum the workers' last reported counts of
	// delivered updates and of deliveries that improved a vertex.
	Messages, Adopted int64
}

// Floats decodes Values as float64 (BFS/SSSP distances, PageRank ranks).
func (r *Result) Floats() []float64 {
	out := make([]float64, len(r.Values))
	for i, w := range r.Values {
		out[i] = math.Float64frombits(w)
	}
	return out
}

// Labels decodes Values as uint32 component labels (WCC).
func (r *Result) Labels() []uint32 {
	out := make([]uint32, len(r.Values))
	for i, w := range r.Values {
		out[i] = uint32(w)
	}
	return out
}

// coordWorker is the coordinator's view of one worker. gen increments on
// every (re)connect so events from a dead incarnation's reader goroutine
// can be discarded instead of re-killing a healthy restart.
type coordWorker struct {
	id       int
	gen      int
	addr     string // direct listen address
	conn     *frameConn
	lastHB   time.Time
	hbCount  int64
	lastStat heartbeatMsg
	recovers int64
	alive    bool
}

type coordEvent struct {
	worker int
	gen    int
	typ    byte
	hb     heartbeatMsg
	probe  probeReplyMsg
	vals   valuesMsg
	fail   failedMsg
	err    error
}

// Run executes one distributed job: launch, partition, supervise to
// quiescence, fetch, shut down. It restarts crashed workers from their
// checkpoints and ripple-repairs their boundaries (Theorem 2); it fails on
// setup errors, restart exhaustion, a panic in kernel code, cancellation
// of ctx, or timeout — and returns the partial Result with the error.
func Run(ctx context.Context, opt Options) (*Result, error) {
	opt.defaults()
	c := &coordinator{opt: opt, life: core.Lifecycle{Name: "netdist", Context: ctx, Observer: opt.Observer}}
	c.life.Begin()
	values, err := c.run(ctx)
	res := &Result{Values: values, Restarts: c.restarts, Repairs: c.repairs, Sweeps: c.sweeps, Converged: err == nil}
	res.Duration = c.life.End(res.Converged)
	c.mu.Lock()
	for _, w := range c.workers {
		if w != nil { // nil if the run failed while launching workers
			res.Messages += w.lastStat.Messages
			res.Adopted += w.lastStat.Adopted
		}
	}
	c.mu.Unlock()
	c.opt.Observer.Emit(obs.Event{
		Engine:        obs.EngineNetdist,
		Messages:      res.Messages,
		Updates:       res.Adopted,
		DurationNanos: int64(res.Duration),
	})
	return res, err
}

// run is Run's job on c, up to the fetched values.
func (c *coordinator) run(ctx context.Context) ([]uint64, error) {
	if err := c.life.Err(); err != nil {
		return nil, err
	}
	opt := c.opt
	t, err := opt.table()
	if err != nil {
		return nil, err
	}
	opt.Workers = t.Parts() // may shrink for tiny graphs

	dir := opt.Dir
	if dir == "" {
		dir, err = os.MkdirTemp("", "netdist-*")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
	}
	launcher := opt.Launcher
	if launcher == nil {
		launcher = NewLocalLauncher()
		defer launcher.Close()
	}

	c.opt, c.t, c.dir, c.launcher = opt, t, dir, launcher
	c.workers = make([]*coordWorker, opt.Workers)
	c.events = make(chan coordEvent, 64*opt.Workers)
	c.done = make(chan struct{})
	defer close(c.done)
	defer c.closeConns()
	c.installObs()
	defer c.uninstallObs()

	ctx, cancel := context.WithTimeout(ctx, opt.Timeout)
	defer cancel()

	for id := 0; id < opt.Workers; id++ {
		addr, err := launcher.Start(id)
		if err != nil {
			return nil, fmt.Errorf("netdist: start worker %d: %w", id, err)
		}
		c.workers[id] = &coordWorker{id: id, addr: addr}
	}
	// Every worker builds its graph during init: overlap the builds.
	errs := make([]error, opt.Workers)
	var wg sync.WaitGroup
	for id := range errs {
		wg.Add(1)
		go func() { defer wg.Done(); errs[id] = c.connectAndInit(id, false) }()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	c.mu.Lock()
	c.ready = true
	c.mu.Unlock()
	for _, w := range c.workers {
		if err := w.conn.writeFrame(msgStart, nil); err != nil {
			return nil, fmt.Errorf("netdist: start worker %d: %w", w.id, err)
		}
	}
	// Shut the workers down however the run ends: best effort, they also
	// exit when their control connections close.
	defer func() {
		for _, w := range c.workers {
			_ = w.conn.writeFrame(msgShutdown, nil)
		}
	}()
	return c.supervise(ctx)
}

// table partitions the job. Only an edge-balanced table, or a spec that
// leaves the vertex count to its edge list, needs the graph itself;
// otherwise the workers are the only ones to build it.
func (o *Options) table() (Table, error) {
	if !o.ByEdges && o.Graph.N > 0 {
		return NewTable(o.Graph.N, o.Workers)
	}
	g, err := o.Graph.Build()
	if err != nil {
		return Table{}, err
	}
	if o.ByEdges {
		return NewTableByEdges(g, o.Workers)
	}
	return NewTable(g.N(), o.Workers)
}

type coordinator struct {
	opt      Options
	life     core.Lifecycle
	t        Table
	dir      string
	launcher Launcher
	workers  []*coordWorker
	events   chan coordEvent
	done     chan struct{} // closed when Run returns; unblocks readers

	// mu guards the fields below plus coordWorker mutables against the
	// observer's readiness/stats closures, which read from HTTP handler
	// goroutines. All writers run on the supervise goroutine.
	mu    sync.Mutex
	ready bool

	restarts int
	repairs  int
	sweeps   int
}

func (c *coordinator) closeConns() {
	for _, w := range c.workers {
		if w != nil && w.conn != nil {
			w.conn.Close()
		}
	}
}

// peersFor returns the peer address list worker id should use: direct
// addresses, or per-pair proxy addresses when a fault proxy is installed.
func (c *coordinator) peersFor(id int) ([]string, error) {
	peers := make([]string, len(c.workers))
	for j, w := range c.workers {
		if j == id {
			continue
		}
		if c.opt.Proxy != nil {
			addr, err := c.opt.Proxy.RoutePair(id, j, w.addr)
			if err != nil {
				return nil, err
			}
			peers[j] = addr
		} else {
			peers[j] = w.addr
		}
	}
	return peers, nil
}

// connectAndInit dials worker id's control connection, sends init, and
// waits for ready (skipping early heartbeats).
func (c *coordinator) connectAndInit(id int, restore bool) error {
	w := c.workers[id]
	var conn net.Conn
	var err error
	deadline := time.Now().Add(10 * time.Second)
	for {
		conn, err = net.DialTimeout("tcp", w.addr, dialTimeout)
		if err == nil || time.Now().After(deadline) {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err != nil {
		return fmt.Errorf("netdist: dial worker %d at %s: %w", id, w.addr, err)
	}
	fc := newFrameConn(conn, 0, connWriteTO)
	if err := fc.writeJSON(msgHello, helloMsg{Role: "coord"}); err != nil {
		fc.Close()
		return err
	}
	peers, err := c.peersFor(id)
	if err != nil {
		fc.Close()
		return err
	}
	init := initMsg{
		Worker:   id,
		Starts:   c.t.Starts(),
		Graph:    c.opt.Graph,
		Algo:     c.opt.Algo,
		Peers:    peers,
		Dir:      filepath.Join(c.dir, fmt.Sprintf("w%d", id)),
		Restore:  restore,
		CkptOps:  c.opt.CkptOps,
		RTOMilli: int(c.opt.RTO / time.Millisecond),
		HBMilli:  int(c.opt.Heartbeat / time.Millisecond),
	}
	if err := fc.writeJSON(msgInit, init); err != nil {
		fc.Close()
		return err
	}
	// Wait for ready; the worker may interleave heartbeats.
	_ = conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	for {
		typ, p, err := fc.readFrame()
		if err != nil {
			fc.Close()
			return fmt.Errorf("netdist: worker %d did not become ready: %w", id, err)
		}
		if typ != msgReady {
			continue
		}
		var ready readyMsg
		if err := json.Unmarshal(p, &ready); err != nil {
			fc.Close()
			return err
		}
		if ready.Err != "" {
			fc.Close()
			return fmt.Errorf("netdist: worker %d init: %s", id, ready.Err)
		}
		break
	}
	_ = conn.SetReadDeadline(time.Time{})
	if w.conn != nil {
		w.conn.Close()
	}
	c.mu.Lock()
	w.conn = fc
	w.gen++
	w.lastHB = time.Now()
	w.alive = true
	gen := w.gen
	c.mu.Unlock()
	go c.readWorker(w.id, gen, fc)
	return nil
}

// readWorker pumps one worker incarnation's control frames into the
// event loop. The generation tag lets the loop discard frames and errors
// from a superseded incarnation.
func (c *coordinator) readWorker(id, gen int, fc *frameConn) {
	send := func(ev coordEvent) bool {
		select {
		case c.events <- ev:
			return true
		case <-c.done:
			return false
		}
	}
	for {
		typ, p, err := fc.readFrame()
		if err != nil {
			send(coordEvent{worker: id, gen: gen, err: err})
			return
		}
		ev := coordEvent{worker: id, gen: gen, typ: typ}
		switch typ {
		case msgHeartbeat:
			if json.Unmarshal(p, &ev.hb) != nil {
				continue
			}
		case msgProbeRep:
			if json.Unmarshal(p, &ev.probe) != nil {
				continue
			}
		case msgValues:
			if json.Unmarshal(p, &ev.vals) != nil {
				continue
			}
		case msgFailed:
			if json.Unmarshal(p, &ev.fail) != nil {
				continue
			}
		default:
			continue
		}
		if !send(ev) {
			return
		}
	}
}

// supervise is the coordinator's main loop: track heartbeats, restart the
// dead, sweep for quiescence, and fetch the result once quiesced.
func (c *coordinator) supervise(ctx context.Context) ([]uint64, error) {
	supTick := time.NewTicker(c.opt.Heartbeat)
	defer supTick.Stop()
	probeTick := time.NewTicker(2 * c.opt.Heartbeat)
	defer probeTick.Stop()

	var (
		sweepEpoch    int64
		sweepPending  map[int]bool
		sweepStarted  time.Time
		sweepReplies  map[int]probeReplyMsg
		prevIdle      map[int]probeReplyMsg
		fetching      bool
		fetchPending  map[int]bool
		values        []uint64
		valuesPending int
	)
	// sweep probes every worker for a quiescence snapshot.
	sweep := func() {
		if !c.allAlive() {
			return
		}
		sweepEpoch++
		c.sweeps++
		sweepStarted = time.Now()
		sweepPending = make(map[int]bool)
		sweepReplies = make(map[int]probeReplyMsg)
		body, _ := json.Marshal(struct {
			Epoch int64 `json:"epoch"`
		}{sweepEpoch})
		for _, w := range c.workers {
			sweepPending[w.id] = true
			if err := w.conn.writeFrame(msgProbe, body); err != nil {
				sweepPending = nil
				break
			}
		}
	}

	for {
		select {
		case <-ctx.Done():
			if err := c.life.Err(); err != nil {
				return nil, err // the caller cancelled
			}
			return nil, fmt.Errorf("netdist: run did not converge within %v: %w", c.opt.Timeout, ctx.Err())

		case ev := <-c.events:
			w := c.workers[ev.worker]
			if ev.gen != w.gen {
				continue // a superseded incarnation's reader goroutine
			}
			if ev.err != nil {
				c.mu.Lock()
				if w.alive {
					w.alive = false // restart decided by the supervision tick
					w.lastHB = time.Time{}
				}
				c.mu.Unlock()
				continue
			}
			switch ev.typ {
			case msgFailed:
				if f := ev.fail; f.Vertex >= 0 {
					return nil, c.life.PanicError(uint32(f.Vertex), f.Panic, []byte(f.Stack))
				}
				return nil, fmt.Errorf("netdist: worker %d panicked: %s\n%s", ev.worker, ev.fail.Panic, ev.fail.Stack)
			case msgHeartbeat:
				c.mu.Lock()
				w.lastHB = time.Now()
				w.hbCount++
				w.lastStat = ev.hb
				c.mu.Unlock()
			case msgProbeRep:
				if ev.probe.Epoch != sweepEpoch || sweepPending == nil || !sweepPending[ev.worker] {
					continue // stale sweep
				}
				delete(sweepPending, ev.worker)
				sweepReplies[ev.worker] = ev.probe
				if len(sweepPending) > 0 {
					continue
				}
				// Sweep complete: quiesce iff two consecutive all-idle
				// sweeps with identical transfer counters.
				idle := true
				for _, r := range sweepReplies {
					if r.QueueLen != 0 || r.Busy || r.Unacked != 0 {
						idle = false
						break
					}
				}
				if idle && prevIdle != nil && sweepStable(prevIdle, sweepReplies) && !fetching {
					fetching = true
					fetchPending = make(map[int]bool)
					values = make([]uint64, c.t.N())
					valuesPending = len(c.workers)
					for _, w := range c.workers {
						fetchPending[w.id] = true
						if err := w.conn.writeFrame(msgFetch, nil); err != nil {
							return nil, fmt.Errorf("netdist: fetch from worker %d: %w", w.id, err)
						}
					}
					continue
				}
				// The first all-idle sweep is confirmed at once rather than
				// on the next tick: a batch is queued before it is acked, so
				// no gap between sweeps, however short, can hide one. A
				// confirming sweep that saw counters move waits for the tick.
				confirm := idle && prevIdle == nil
				if idle {
					prevIdle = sweepReplies
				} else {
					prevIdle = nil
				}
				sweepPending = nil
				if confirm {
					sweep()
				}
			case msgValues:
				if !fetching || !fetchPending[ev.worker] {
					continue
				}
				delete(fetchPending, ev.worker)
				copy(values[ev.vals.Lo:], ev.vals.Values)
				valuesPending--
				if valuesPending == 0 {
					return values, nil
				}
			}

		case <-supTick.C:
			if fetching {
				continue
			}
			dead := -1
			horizon := time.Duration(c.opt.HeartbeatMiss) * c.opt.Heartbeat
			for _, w := range c.workers {
				if !w.alive || time.Since(w.lastHB) > horizon {
					dead = w.id
					break
				}
			}
			if dead < 0 {
				continue
			}
			if c.restarts >= c.opt.MaxRestarts {
				return nil, fmt.Errorf("netdist: worker %d dead after %d restarts", dead, c.restarts)
			}
			if err := c.restart(dead); err != nil {
				return nil, err
			}
			// Any in-flight sweep is void: state changed.
			sweepPending = nil
			prevIdle = nil

		case <-probeTick.C:
			if fetching {
				continue
			}
			// A sweep whose replies never arrived (worker died mid-sweep,
			// dropped frame) must not wedge quiescence detection forever.
			if sweepPending != nil {
				if time.Since(sweepStarted) > 10*c.opt.Heartbeat {
					sweepPending = nil
					prevIdle = nil
				}
				continue
			}
			sweep()
		}
	}
}

func (c *coordinator) allAlive() bool {
	for _, w := range c.workers {
		if !w.alive {
			return false
		}
	}
	return true
}

// sweepStable reports whether the transfer counters of two completed
// all-idle sweeps are identical — nothing moved between them, so no
// message can be hiding in flight (the double-sweep stability argument).
func sweepStable(a, b map[int]probeReplyMsg) bool {
	if len(a) != len(b) {
		return false
	}
	for id, ra := range a {
		rb, ok := b[id]
		if !ok || ra.Sent != rb.Sent || ra.Acked != rb.Acked ||
			ra.Recv != rb.Recv || ra.Adopted != rb.Adopted {
			return false
		}
	}
	return true
}

// restart brings worker id back: relaunch, re-init with Restore, retarget
// the fault proxy, announce the new address to peers, start it, and
// broadcast the Theorem-2 boundary repair.
func (c *coordinator) restart(id int) error {
	w := c.workers[id]
	_ = c.launcher.Stop(id)
	addr, err := c.launcher.Start(id)
	if err != nil {
		return fmt.Errorf("netdist: relaunch worker %d: %w", id, err)
	}
	c.mu.Lock()
	w.addr = addr
	c.mu.Unlock()
	if c.opt.Proxy != nil {
		// Links into the restarted worker keep their stable proxy listen
		// addresses; only the backend target moves.
		for _, p := range c.workers {
			if p.id != id {
				c.opt.Proxy.Retarget(p.id, id, addr)
			}
		}
	}
	if err := c.connectAndInit(id, true); err != nil {
		return err
	}
	c.mu.Lock()
	w.recovers++
	c.restarts++
	c.mu.Unlock()
	// The repair broadcast below spikes load on every worker at once.
	// Grant the whole fleet a fresh heartbeat horizon so a transiently
	// delayed heartbeat during the ripple cannot be mistaken for a
	// second death and cascade into a restart storm.
	now := time.Now()
	for _, p := range c.workers {
		if p.alive {
			p.lastHB = now
		}
	}
	for _, p := range c.workers {
		if p.id == id {
			continue
		}
		if c.opt.Proxy == nil {
			if err := p.conn.writeJSON(msgPeerUpd, peerUpdateMsg{Peer: id, Addr: addr}); err != nil {
				return err
			}
		}
		if err := p.conn.writeJSON(msgRepair, repairMsg{Target: id}); err != nil {
			return err
		}
		c.mu.Lock()
		c.repairs++
		c.mu.Unlock()
	}
	return w.conn.writeFrame(msgStart, nil)
}

// installObs wires live readiness and per-worker stats into the observer.
func (c *coordinator) installObs() {
	o := c.opt.Observer
	if o == nil {
		return
	}
	o.SetReadiness(func() []obs.ReadyCheck {
		c.mu.Lock()
		defer c.mu.Unlock()
		allUp := c.ready
		for _, w := range c.workers {
			if w == nil || !w.alive {
				allUp = false
				break
			}
		}
		return []obs.ReadyCheck{{Name: "workers", OK: allUp, Detail: "all workers heartbeating"}}
	})
	o.SetWorkerStatsSource(func() []obs.WorkerStats {
		c.mu.Lock()
		defer c.mu.Unlock()
		out := make([]obs.WorkerStats, 0, len(c.workers))
		for _, w := range c.workers {
			if w == nil {
				continue
			}
			out = append(out, obs.WorkerStats{
				Worker:      strconv.Itoa(w.id),
				Heartbeats:  w.hbCount,
				Retransmits: w.lastStat.Retransmits,
				Recoveries:  w.recovers,
				Messages:    w.lastStat.Messages,
				Adopted:     w.lastStat.Adopted,
				Unacked:     w.lastStat.Unacked,
			})
		}
		return out
	})
}

func (c *coordinator) uninstallObs() {
	if o := c.opt.Observer; o != nil {
		o.SetReadiness(nil)
		o.SetWorkerStatsSource(nil)
	}
}
