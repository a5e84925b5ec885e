package runtime

import (
	"testing"
	"time"
)

func TestQuiescerDisabled(t *testing.T) {
	if q := newQuiescer(0, 3); q != nil {
		t.Fatal("syncOps=0 should disable the quiescer")
	}
	if q := newQuiescer(16, 0); q != nil {
		t.Fatal("members=0 should disable the quiescer")
	}
	var q *quiescer
	q.tick() // nil-safe
	q.leave()
	if r := q.due(); r != 0 {
		t.Fatalf("nil quiescer due() = %d, want 0 (never due)", r)
	}
}

func TestQuiescerDue(t *testing.T) {
	q := newQuiescer(4, 1)
	for i := 0; i < 3; i++ {
		q.tick()
	}
	if r := q.due(); r != 0 {
		t.Fatalf("due() = %d after 3 of 4 ticks, want 0", r)
	}
	q.tick()
	if r := q.due(); r != 1 {
		t.Fatalf("due() = %d after 4 ticks, want 1", r)
	}
	for i := 0; i < 8; i++ {
		q.tick()
	}
	if r := q.due(); r != 3 {
		t.Fatalf("due() = %d after 12 ticks, want 3", r)
	}
}

// The barrier releases only when every member arrives, and the release
// covers the highest requested round (members may observe different rounds
// when the counter advanced between their checks).
func TestQuiescerBarrier(t *testing.T) {
	q := newQuiescer(1, 2)
	released := make(chan struct{})
	go func() {
		q.await(1)
		close(released)
	}()
	select {
	case <-released:
		t.Fatal("barrier released with one of two members arrived")
	case <-time.After(20 * time.Millisecond):
	}
	q.await(2) // second arrival, higher round: releases both
	select {
	case <-released:
	case <-time.After(time.Second):
		t.Fatal("barrier did not release after all members arrived")
	}
	// Round 2 covered round 1 and itself; both now return immediately.
	done := make(chan struct{})
	go func() {
		q.await(1)
		q.await(2)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("released rounds should not block")
	}
}

// A finished driver leaving the barrier must release stragglers that were
// only waiting on it — otherwise they would wait forever on a driver that
// will never arrive.
func TestQuiescerLeaveReleases(t *testing.T) {
	q := newQuiescer(1, 2)
	released := make(chan struct{})
	go func() {
		q.await(1)
		close(released)
	}()
	select {
	case <-released:
		t.Fatal("barrier released before the other member left")
	case <-time.After(20 * time.Millisecond):
	}
	q.leave()
	select {
	case <-released:
	case <-time.After(time.Second):
		t.Fatal("leave did not release the waiting member")
	}
}
