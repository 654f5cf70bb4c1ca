package sched

import "sync/atomic"

// Deque is a Chase–Lev work-stealing deque of non-negative int work items
// (vertex IDs). One goroutine — the owner — pushes and pops at the bottom
// (LIFO, cache-hot); any number of thieves steal from the top (FIFO, oldest
// work first). The owner side is wait-free except when growing; a steal
// retries its claiming CAS until it wins an item or observes the deque
// empty — lock-free, since a failed CAS means some other consumer
// succeeded — and a thief never blocks an owner.
//
// The implementation is the classic Chase & Lev growable circular array.
// top and bottom only ever increase; their difference is the live window
// into a power-of-two buffer indexed modulo its length, which makes the
// top CAS immune to ABA. Go's sync/atomic operations are sequentially
// consistent, strictly stronger than the acquire/release/relaxed fences of
// the C11 formulation (Lê et al.), so no additional fencing is needed.
//
// Growth is owner-only: Push installs a doubled buffer via an atomic
// pointer store and never mutates the old one, so a thief holding a stale
// buffer still reads the correct value for any index its top CAS can win —
// the slot for index t is rewritten only when bottom reaches t+len, which
// forces a grow first.
type Deque struct {
	top    atomic.Int64 // next index to steal (only increases)
	bottom atomic.Int64 // next index to push (owner-written)
	buf    atomic.Pointer[dequeBuf]
}

// dequeBuf is one immutable-length circular buffer generation.
type dequeBuf struct {
	mask  int64 // len(items) - 1; len is a power of two
	items []atomic.Int64
}

// minDequeCap is the smallest buffer allocated; deques start small because
// a no-sync run keeps one per worker and most stay shallow.
const minDequeCap = 64

// NewDeque returns an empty deque with capacity for at least hint items
// before the first grow.
func NewDeque(hint int) *Deque {
	n := minDequeCap
	for n < hint {
		n *= 2
	}
	d := &Deque{}
	d.buf.Store(&dequeBuf{mask: int64(n - 1), items: make([]atomic.Int64, n)})
	return d
}

// Push appends v at the bottom. Owner-only.
func (d *Deque) Push(v int) {
	b := d.bottom.Load()
	t := d.top.Load()
	buf := d.buf.Load()
	if b-t > buf.mask {
		buf = d.grow(buf, b, t)
	}
	buf.items[b&buf.mask].Store(int64(v))
	d.bottom.Store(b + 1)
}

// Pop removes and returns the most recently pushed item. Owner-only.
func (d *Deque) Pop() (int, bool) {
	b := d.bottom.Load() - 1
	buf := d.buf.Load()
	d.bottom.Store(b)
	t := d.top.Load()
	if b < t {
		// Empty: undo the reservation.
		d.bottom.Store(t)
		return 0, false
	}
	v := int(buf.items[b&buf.mask].Load())
	if b > t {
		return v, true
	}
	// Last item: race thieves for it through the top CAS.
	won := d.top.CompareAndSwap(t, t+1)
	d.bottom.Store(t + 1)
	if !won {
		return 0, false
	}
	return v, true
}

// Steal removes and returns the oldest item. Safe for any goroutine. A
// false return means the deque was observed empty; a lost top CAS retries
// rather than reporting failure — some party always wins it (lock-free),
// and giving up on contention makes an owner consuming its own deque from
// the top desert a non-empty backlog and go raid other workers, cascading
// task migration (measured: ~80% of all tasks ended up stolen in an
// 8-thread WCC run before this retried).
func (d *Deque) Steal() (int, bool) {
	for {
		t := d.top.Load()
		b := d.bottom.Load()
		if t >= b {
			return 0, false
		}
		buf := d.buf.Load()
		v := int(buf.items[t&buf.mask].Load())
		if d.top.CompareAndSwap(t, t+1) {
			return v, true
		}
	}
}

// StealBatch removes up to half of the deque's items — at most len(buf) —
// from the top in one CAS and copies them into buf in FIFO order,
// returning the count. A single CAS claims the whole run, so a thief that
// relocates the batch into its own deque migrates a contiguous
// neighbourhood of work at one-task cost instead of bouncing the victim's
// top cache line once per task.
//
// CAVEAT: safe against Push, Steal and other StealBatch calls, but NOT
// against a concurrent owner Pop: Pop claims items below the last one
// without a CAS, so a multi-item claim could overlap it. Use only on
// deques whose owner consumes via Steal (FIFO), as the NoSync scheduler
// does.
func (d *Deque) StealBatch(buf []int) int {
	for {
		t := d.top.Load()
		b := d.bottom.Load()
		n := b - t
		if n <= 0 {
			return 0
		}
		k := (n + 1) / 2
		if k > int64(len(buf)) {
			k = int64(len(buf))
		}
		db := d.buf.Load()
		for i := int64(0); i < k; i++ {
			buf[i] = int(db.items[(t+i)&db.mask].Load())
		}
		if d.top.CompareAndSwap(t, t+k) {
			return int(k)
		}
	}
}

// Len reports the current item count as observed racily; exact only when
// no other party is operating on the deque.
func (d *Deque) Len() int {
	n := d.bottom.Load() - d.top.Load()
	if n < 0 {
		return 0
	}
	return int(n)
}

// Cap reports the current buffer capacity (for tests).
func (d *Deque) Cap() int { return len(d.buf.Load().items) }

// grow doubles the buffer, copying the live window [t, b). Owner-only; the
// old buffer is left intact for thieves holding stale pointers.
func (d *Deque) grow(old *dequeBuf, b, t int64) *dequeBuf {
	nb := &dequeBuf{mask: old.mask*2 + 1, items: make([]atomic.Int64, 2*len(old.items))}
	for i := t; i < b; i++ {
		nb.items[i&nb.mask].Store(old.items[i&old.mask].Load())
	}
	d.buf.Store(nb)
	return nb
}
