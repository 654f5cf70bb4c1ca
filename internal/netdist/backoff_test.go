package netdist

import (
	"testing"
	"time"
)

// A worker runs two retransmission schedules: rtoFor (before resending an
// unacked batch) and dialBackoffLocked (before redialling a peer). Both are
// jittered exponentials: attempt a draws uniformly from
// [base*3/4, base*3/4 + base/2], where base doubles per attempt up to a cap.
// Unbounded growth would turn a lossy link into a livelock; no growth, or
// no jitter, keeps retransmits colliding.

const backoffRTO = time.Second

type backoffSchedule struct {
	name string
	// first is the base of attempt 1; each attempt doubles it up to cap.
	first, cap time.Duration
	draw       func(s *peerSender, a int) time.Duration
}

func (b backoffSchedule) base(a int) time.Duration { return min(b.first<<(a-1), b.cap) }

var backoffSchedules = []backoffSchedule{
	{
		name: "rtoFor", first: backoffRTO, cap: backoffRTO << 5,
		draw: func(s *peerSender, a int) time.Duration { return s.rtoFor(a) },
	},
	{
		name: "dialBackoffLocked", first: backoffRTO / 2, cap: 2 * time.Second,
		draw: func(s *peerSender, a int) time.Duration {
			s.fails = a
			return s.dialBackoffLocked()
		},
	},
}

func newBackoffSender() *peerSender {
	return newPeerSender(&worker{id: 3, rto: backoffRTO}, 1, "")
}

// drawRange returns the smallest and largest of n draws for attempt a.
func drawRange(sch backoffSchedule, s *peerSender, a, n int) (lo, hi time.Duration) {
	lo = time.Duration(1<<63 - 1)
	for i := 0; i < n; i++ {
		d := sch.draw(s, a)
		lo, hi = min(lo, d), max(hi, d)
	}
	return lo, hi
}

func TestBackoffScheduleBounds(t *testing.T) {
	for _, sch := range backoffSchedules {
		s := newBackoffSender()
		for a := 1; a <= 20; a++ {
			base := sch.base(a)
			lo, hi := drawRange(sch, s, a, 200)
			if lo < base*3/4 || hi > base*3/4+base/2 {
				t.Fatalf("%s attempt %d: draws in [%v, %v], outside [%v, %v]",
					sch.name, a, lo, hi, base*3/4, base*3/4+base/2)
			}
		}
	}
	s := newBackoffSender()
	if d := s.dialBackoffLocked(); d != 0 {
		t.Fatalf("dial backoff with no failures = %v, want 0", d)
	}
}

// Below the cap every draw of an attempt exceeds every draw of the one
// before (base doubles: 3/4 of 2b is more than 5/4 of b); from the cap on,
// every draw stays inside the cap's envelope.
func TestBackoffScheduleGrowsThenCaps(t *testing.T) {
	for _, sch := range backoffSchedules {
		s := newBackoffSender()
		_, prevHi := drawRange(sch, s, 1, 500)
		for a := 2; a <= 20; a++ {
			lo, hi := drawRange(sch, s, a, 500)
			if sch.base(a) < sch.cap && lo <= prevHi {
				t.Fatalf("%s attempt %d: smallest draw %v not above attempt %d's largest %v", sch.name, a, lo, a-1, prevHi)
			}
			if sch.base(a) == sch.cap && (lo < sch.cap*3/4 || hi > sch.cap*3/4+sch.cap/2) {
				t.Fatalf("%s attempt %d: draws in [%v, %v], outside the cap's envelope", sch.name, a, lo, hi)
			}
			prevHi = hi
		}
	}
}

// Repeated draws for one attempt must not all land on one value: that is
// the synchronized-retry pathology the jitter exists to break.
func TestBackoffScheduleJitters(t *testing.T) {
	for _, sch := range backoffSchedules {
		s := newBackoffSender()
		for _, a := range []int{1, 2, 4, 8} {
			seen := map[time.Duration]bool{}
			for i := 0; i < 300; i++ {
				seen[sch.draw(s, a)] = true
			}
			if len(seen) < 2 {
				t.Fatalf("%s attempt %d: 300 draws gave a single value (no jitter)", sch.name, a)
			}
		}
	}
}
