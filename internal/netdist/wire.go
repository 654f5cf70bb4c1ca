package netdist

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// Wire protocol: every frame is
//
//	uint32 LE payload length | 1 type byte | payload
//
// where the length counts the type byte plus the payload. Control-plane
// payloads (hello, init, heartbeat, ...) are JSON — small, rare, easy to
// evolve. Data-plane payloads (batches of edge updates and their acks) are
// fixed-layout little-endian binary — the hot path.
//
// The framing is deliberately trivial so the fault proxy can parse it and
// inject faults at frame granularity without understanding payloads.

const (
	// maxFrame bounds a single frame so a corrupted or adversarial length
	// prefix cannot make a reader allocate unboundedly.
	maxFrame = 16 << 20

	frameHeaderLen = 4
)

// Frame type bytes. The data plane (msgData, msgAck) is what the fault
// proxy targets; everything else is control plane.
const (
	msgHello     byte = 0x01 // first frame on any connection; identifies the dialer
	msgInit      byte = 0x02 // coordinator → worker: graph/algo/partition/peer config
	msgReady     byte = 0x03 // worker → coordinator: init complete, listening for peers
	msgStart     byte = 0x04 // coordinator → worker: seed and begin computing
	msgData      byte = 0x10 // worker → worker: batch of (edge, value) updates
	msgAck       byte = 0x11 // worker → worker: cumulative ack of a data batch
	msgHeartbeat byte = 0x20 // worker → coordinator: liveness + progress counters
	msgProbe     byte = 0x21 // coordinator → worker: request a quiescence snapshot
	msgProbeRep  byte = 0x22 // worker → coordinator: quiescence snapshot
	msgRepair    byte = 0x23 // coordinator → worker: re-send boundary into partition K
	msgPeerUpd   byte = 0x24 // coordinator → worker: a peer moved to a new address
	msgFailed    byte = 0x25 // worker → coordinator: kernel code panicked; the run ends
	msgFetch     byte = 0x30 // coordinator → worker: request final vertex values
	msgValues    byte = 0x31 // worker → coordinator: final vertex values
	msgShutdown  byte = 0x3f // coordinator → worker: exit cleanly
)

func msgName(t byte) string {
	switch t {
	case msgHello:
		return "hello"
	case msgInit:
		return "init"
	case msgReady:
		return "ready"
	case msgStart:
		return "start"
	case msgData:
		return "data"
	case msgAck:
		return "ack"
	case msgHeartbeat:
		return "heartbeat"
	case msgProbe:
		return "probe"
	case msgProbeRep:
		return "probe-reply"
	case msgRepair:
		return "repair"
	case msgPeerUpd:
		return "peer-update"
	case msgFailed:
		return "failed"
	case msgFetch:
		return "fetch"
	case msgValues:
		return "values"
	case msgShutdown:
		return "shutdown"
	}
	return fmt.Sprintf("0x%02x", t)
}

// frameConn wraps a TCP connection with frame reading/writing, a write
// mutex (multiple goroutines may send on one connection: a worker's
// receive loop acks while its repair handler re-broadcasts), and per-
// operation deadlines so a hung peer can never wedge a reader or writer
// forever.
type frameConn struct {
	c  net.Conn
	r  *bufio.Reader
	wm sync.Mutex

	readTimeout  time.Duration // 0 = no deadline
	writeTimeout time.Duration
}

func newFrameConn(c net.Conn, readTimeout, writeTimeout time.Duration) *frameConn {
	return &frameConn{
		c:            c,
		r:            bufio.NewReaderSize(c, 64<<10),
		readTimeout:  readTimeout,
		writeTimeout: writeTimeout,
	}
}

func (fc *frameConn) Close() error { return fc.c.Close() }

// writeFrame sends one frame. Safe for concurrent use.
func (fc *frameConn) writeFrame(typ byte, payload []byte) error {
	if len(payload)+1 > maxFrame {
		return fmt.Errorf("netdist: %s frame of %d bytes exceeds limit", msgName(typ), len(payload))
	}
	var hdr [frameHeaderLen + 1]byte
	binary.LittleEndian.PutUint32(hdr[:4], uint32(len(payload)+1))
	hdr[4] = typ

	fc.wm.Lock()
	defer fc.wm.Unlock()
	if fc.writeTimeout > 0 {
		if err := fc.c.SetWriteDeadline(time.Now().Add(fc.writeTimeout)); err != nil {
			return err
		}
	}
	if _, err := fc.c.Write(hdr[:]); err != nil {
		return fmt.Errorf("netdist: write %s header: %w", msgName(typ), err)
	}
	if len(payload) > 0 {
		if _, err := fc.c.Write(payload); err != nil {
			return fmt.Errorf("netdist: write %s payload: %w", msgName(typ), err)
		}
	}
	return nil
}

// readFrame reads one frame. Not safe for concurrent use (one reader
// goroutine per connection).
func (fc *frameConn) readFrame() (typ byte, payload []byte, err error) {
	if fc.readTimeout > 0 {
		if err := fc.c.SetReadDeadline(time.Now().Add(fc.readTimeout)); err != nil {
			return 0, nil, err
		}
	}
	var hdr [frameHeaderLen]byte
	if _, err := io.ReadFull(fc.r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n < 1 || n > maxFrame {
		return 0, nil, fmt.Errorf("netdist: frame length %d out of range", n)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(fc.r, body); err != nil {
		return 0, nil, fmt.Errorf("netdist: short frame body: %w", err)
	}
	return body[0], body[1:], nil
}

// writeJSON marshals v and sends it as a frame of the given type.
func (fc *frameConn) writeJSON(typ byte, v any) error {
	body, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("netdist: marshal %s: %w", msgName(typ), err)
	}
	return fc.writeFrame(typ, body)
}

// --- Control-plane payloads (JSON) ---

// helloMsg is the first frame on every connection and identifies the
// dialer, letting a worker's single listener multiplex coordinator control
// connections and peer data connections.
type helloMsg struct {
	Role string `json:"role"` // "coord" or "peer"
	From int    `json:"from"` // peer worker id (role "peer" only)
}

// initMsg carries everything a worker needs to reconstruct its slice of
// the computation. Graphs cross the wire as generative specs, not edge
// dumps: workers rebuild the identical graph from (kind, seed) locally.
type initMsg struct {
	Worker   int       `json:"worker"`
	Starts   []uint32  `json:"starts"` // partition table boundaries
	Graph    GraphSpec `json:"graph"`
	Algo     AlgoSpec  `json:"algo"`
	Peers    []string  `json:"peers"` // index = worker id; self entry ignored
	Dir      string    `json:"dir"`   // per-worker scratch dir (checkpoints)
	Restore  bool      `json:"restore"`
	CkptOps  int       `json:"ckpt_ops"` // checkpoint every N adopted updates (0 = default)
	RTOMilli int       `json:"rto_ms"`   // base retransmission timeout
	HBMilli  int       `json:"hb_ms"`    // heartbeat interval
}

// readyMsg acknowledges init; Restored reports whether a checkpoint was
// loaded (and from which generation) so tests can assert recovery paths.
// A worker whose init failed sends Err instead and hangs up.
type readyMsg struct {
	Worker   int    `json:"worker"`
	Restored string `json:"restored,omitempty"` // "", "ckpt", or "ckpt.prev"
	Err      string `json:"err,omitempty"`
}

// heartbeatMsg carries liveness plus the progress counters the
// coordinator exposes through obs.WorkerStats.
type heartbeatMsg struct {
	Worker      int   `json:"worker"`
	Seq         int64 `json:"seq"`
	Messages    int64 `json:"messages"`
	Adopted     int64 `json:"adopted"`
	Retransmits int64 `json:"retransmits"`
	Unacked     int64 `json:"unacked"`
	QueueLen    int64 `json:"queue_len"`
	Busy        bool  `json:"busy"`
}

// probeReplyMsg is a quiescence snapshot: the coordinator declares global
// quiescence only after two consecutive sweeps in which every worker is
// idle with nothing in flight and the transfer counters did not move
// (a Mattern-style stability check over an unsynchronized cut).
type probeReplyMsg struct {
	Worker   int   `json:"worker"`
	Epoch    int64 `json:"epoch"`
	QueueLen int64 `json:"queue_len"`
	Busy     bool  `json:"busy"`
	Unacked  int64 `json:"unacked"`
	Sent     int64 `json:"sent"`
	Acked    int64 `json:"acked"`
	Recv     int64 `json:"recv"`
	Adopted  int64 `json:"adopted"`
}

// repairMsg asks a worker to re-send its current boundary values along
// every out-edge crossing into partition Target (Theorem-2 ripple repair
// after Target restarted). A worker receiving its own id re-sends its
// crossing out-edges outward instead.
type repairMsg struct {
	Target int `json:"target"`
}

// peerUpdateMsg announces that a restarted peer now listens at Addr.
type peerUpdateMsg struct {
	Peer int    `json:"peer"`
	Addr string `json:"addr"`
}

// failedMsg reports a panic recovered on a worker's compute goroutine:
// Vertex is the vertex whose update was running, or -1 when the panic came
// from elsewhere (a delivery, a repair resend).
type failedMsg struct {
	Worker int    `json:"worker"`
	Vertex int64  `json:"vertex"`
	Panic  string `json:"panic"`
	Stack  string `json:"stack"`
}

// valuesMsg returns a worker's owned slice of the result. Values are the
// raw uint64 propagation values; Result decodes them.
type valuesMsg struct {
	Worker int      `json:"worker"`
	Lo     uint32   `json:"lo"`
	Values []uint64 `json:"values"`
}

// --- Data-plane payloads (binary) ---

// A data batch is
//
//	uint64 seq | uint32 count | count × (uint32 edge, uint64 value)
//
// where edge is the canonical edge index the value travels along. Sending
// edges (not destination vertices) lets the receiver find the destination
// in its own CSR and drop a stale frame for an edge it does not own.
type dataBatch struct {
	seq     uint64
	entries []batchEntry
}

type batchEntry struct {
	edge uint32
	val  uint64
}

const batchEntryLen = 12

func encodeBatch(b dataBatch) []byte {
	out := make([]byte, 12+len(b.entries)*batchEntryLen)
	binary.LittleEndian.PutUint64(out[0:], b.seq)
	binary.LittleEndian.PutUint32(out[8:], uint32(len(b.entries)))
	off := 12
	for _, e := range b.entries {
		binary.LittleEndian.PutUint32(out[off:], e.edge)
		binary.LittleEndian.PutUint64(out[off+4:], e.val)
		off += batchEntryLen
	}
	return out
}

func decodeBatch(p []byte) (dataBatch, error) {
	if len(p) < 12 {
		return dataBatch{}, fmt.Errorf("netdist: data batch of %d bytes", len(p))
	}
	b := dataBatch{seq: binary.LittleEndian.Uint64(p[0:])}
	count := int(binary.LittleEndian.Uint32(p[8:]))
	if len(p) != 12+count*batchEntryLen {
		return dataBatch{}, fmt.Errorf("netdist: data batch declares %d entries in %d bytes", count, len(p))
	}
	b.entries = make([]batchEntry, count)
	off := 12
	for i := range b.entries {
		b.entries[i] = batchEntry{
			edge: binary.LittleEndian.Uint32(p[off:]),
			val:  binary.LittleEndian.Uint64(p[off+4:]),
		}
		off += batchEntryLen
	}
	return b, nil
}

func encodeAck(seq uint64) []byte {
	var out [8]byte
	binary.LittleEndian.PutUint64(out[:], seq)
	return out[:]
}

func decodeAck(p []byte) (uint64, error) {
	if len(p) != 8 {
		return 0, fmt.Errorf("netdist: ack of %d bytes", len(p))
	}
	return binary.LittleEndian.Uint64(p), nil
}
