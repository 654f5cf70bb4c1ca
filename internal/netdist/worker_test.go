package netdist

import (
	"net"
	"sync"
	"testing"
	"time"
)

// TestServePeerQueuesBeforeAck: a data batch is acked only once it sits in
// the compute queue. Were the ack first, the batch would for a moment be in
// neither the sender's unacked window nor the receiver's queue, and two
// quiescence sweeps landing in that moment would end the run without it.
func TestServePeerQueuesBeforeAck(t *testing.T) {
	w := &worker{}
	w.cond = sync.NewCond(&w.mu)
	peerEnd, workerEnd := net.Pipe()
	defer peerEnd.Close()
	go w.servePeer(newFrameConn(workerEnd, 0, connWriteTO))
	peer := newFrameConn(peerEnd, 0, connWriteTO)

	w.mu.Lock() // the queue is busy: the batch cannot be queued yet
	b := dataBatch{seq: 7, entries: []batchEntry{{edge: 3, val: 11}}}
	if err := peer.writeFrame(msgData, encodeBatch(b)); err != nil {
		w.mu.Unlock()
		t.Fatal(err)
	}
	_ = peerEnd.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
	if typ, _, err := peer.readFrame(); err == nil {
		w.mu.Unlock()
		t.Fatalf("got a %s frame before the batch was queued", msgName(typ))
	}
	w.mu.Unlock()

	_ = peerEnd.SetReadDeadline(time.Now().Add(5 * time.Second))
	typ, p, err := peer.readFrame()
	if err != nil || typ != msgAck {
		t.Fatalf("after queueing: frame %s, err %v; want an ack", msgName(typ), err)
	}
	if seq, err := decodeAck(p); err != nil || seq != b.seq {
		t.Fatalf("ack for seq %d (err %v), want %d", seq, err, b.seq)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if len(w.cmds) != 1 || w.cmds[0].kind != cmdDeliver || w.cmds[0].batch.seq != b.seq {
		t.Fatalf("queue holds %+v, want the delivered batch", w.cmds)
	}
}
