package netdist

import (
	"bytes"
	"net"
	"slices"
	"testing"
	"time"
)

func TestBatchRoundTrip(t *testing.T) {
	in := dataBatch{seq: 42, entries: []batchEntry{
		{edge: 0, val: 0},
		{edge: 7, val: ^uint64(0)},
		{edge: 1 << 30, val: 0xdeadbeefcafe},
	}}
	out, err := decodeBatch(encodeBatch(in))
	if err != nil {
		t.Fatal(err)
	}
	if out.seq != in.seq || len(out.entries) != len(in.entries) {
		t.Fatalf("round trip: %+v", out)
	}
	for i := range in.entries {
		if out.entries[i] != in.entries[i] {
			t.Fatalf("entry %d: %+v != %+v", i, out.entries[i], in.entries[i])
		}
	}
	if _, err := decodeBatch(encodeBatch(dataBatch{seq: 1})); err != nil {
		t.Fatalf("empty batch: %v", err)
	}
}

func TestBatchDecodeRejectsTruncated(t *testing.T) {
	p := encodeBatch(dataBatch{seq: 9, entries: []batchEntry{{edge: 1, val: 2}}})
	for cut := 1; cut < len(p); cut++ {
		if _, err := decodeBatch(p[:len(p)-cut]); err == nil {
			t.Fatalf("accepted batch truncated by %d bytes", cut)
		}
	}
}

func TestAckRoundTrip(t *testing.T) {
	seq, err := decodeAck(encodeAck(123456789))
	if err != nil || seq != 123456789 {
		t.Fatalf("seq=%d err=%v", seq, err)
	}
	if _, err := decodeAck([]byte{1, 2, 3}); err == nil {
		t.Fatal("accepted short ack")
	}
}

func TestValuesRoundTrip(t *testing.T) {
	vals := []uint64{0, 1, 1 << 63, 0xdeadbeefcafef00d}
	p := encodeValues(40, vals)
	got := make([]uint64, len(vals)+1) // the sender owes one more value
	if n, err := decodeValues(p, 40, got); err != nil || n != len(vals) || !slices.Equal(got[:n], vals) {
		t.Fatalf("decoded %d values %v (err %v), want %v", n, got, err, vals)
	}
	// A frame starting elsewhere, longer than what is owed, or torn, is
	// refused.
	for _, tc := range []struct {
		p   []byte
		lo  uint32
		dst int
	}{{p, 41, 4}, {p, 40, 3}, {p[:len(p)-1], 40, 4}, {p[:3], 40, 0}} {
		if _, err := decodeValues(tc.p, tc.lo, make([]uint64, tc.dst)); err == nil {
			t.Errorf("%d-byte frame decoded into [%d,%d)", len(tc.p), tc.lo, int(tc.lo)+tc.dst)
		}
	}
}

func TestFrameRoundTrip(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	fa := newFrameConn(a, time.Second, time.Second)
	fb := newFrameConn(b, time.Second, time.Second)

	payload := bytes.Repeat([]byte{0xab}, 1000)
	go func() { _ = fa.writeFrame(msgData, payload) }()
	typ, got, err := fb.readFrame()
	if err != nil {
		t.Fatal(err)
	}
	if typ != msgData || !bytes.Equal(got, payload) {
		t.Fatalf("typ=%s len=%d", msgName(typ), len(got))
	}
}

func TestFrameRejectsOversize(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	fa := newFrameConn(a, time.Second, time.Second)
	if err := fa.writeFrame(msgData, make([]byte, maxFrame)); err == nil {
		t.Fatal("oversize frame written")
	}
	// A poisoned length prefix must be rejected before allocation.
	go func() {
		hdr := []byte{0xff, 0xff, 0xff, 0xff}
		_ = a.SetWriteDeadline(time.Now().Add(time.Second))
		_, _ = a.Write(hdr)
	}()
	fb := newFrameConn(b, time.Second, time.Second)
	if _, _, err := fb.readFrame(); err == nil {
		t.Fatal("oversize length prefix accepted")
	}
}
