package netdist

import (
	"context"
	"net"
	"os"
	"path/filepath"
	"slices"
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

// TestWorkerRestoresCheckpoint: a restarted worker resumes from the newest
// loadable generation of its own checkpoint. Theorem 2 repairs a cold start
// to the same fixed point, so the end-to-end kill tests would pass even if
// every restart ignored its checkpoint; this test looks at the worker.
func TestWorkerRestoresCheckpoint(t *testing.T) {
	dir := t.TempDir()
	init := initMsg{Worker: 1, Starts: []uint32{0, 4, 8}, Graph: GraphSpec{Kind: "chain", N: 8}, Algo: AlgoSpec{Name: "wcc"}, Dir: dir}
	start := func(restore bool) *worker {
		t.Helper()
		w := newWorker(context.Background())
		t.Cleanup(func() { w.stop(); w.cancel(); w.wg.Wait() })
		init.Restore = restore
		if err := w.initialize(init); err != nil {
			t.Fatal(err)
		}
		return w
	}
	cold, older, newer := []uint64{4, 5, 6, 7}, []uint64{2, 2, 2, 2}, []uint64{0, 0, 0, 0}
	w := start(false)
	for _, vals := range [][]uint64{older, newer} {
		if err := w.saveCheckpoint(vals); err != nil {
			t.Fatal(err)
		}
	}
	check := func(gen string, want []uint64) {
		t.Helper()
		w := start(true)
		if w.restored != gen || !slices.Equal(w.kern.vals, want) {
			t.Fatalf("restored generation %q with values %v, want %q with %v", w.restored, w.kern.vals, gen, want)
		}
	}
	check("ckpt", newer)
	tear := func(name string) {
		t.Helper()
		path := filepath.Join(dir, name)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
			t.Fatal(err)
		}
	}
	tear("ckpt")
	check("ckpt.prev", older)
	tear("ckpt.prev")
	check("", cold)
}
