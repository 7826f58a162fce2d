package main

import (
	"context"
	"testing"
	"time"
)

// A stub server that stalls once must raise the latency of the requests
// queued behind the stall, because latency runs from the due time.
func TestOpenLoopChargesStallToQueuedRequests(t *testing.T) {
	const (
		n        = 40
		interval = 5 * time.Millisecond
		stallAt  = 10
		stall    = 150 * time.Millisecond
	)
	samples := runOpenLoop(context.Background(), n, interval, 1, func(i int) error {
		if i == stallAt {
			time.Sleep(stall)
		}
		return nil
	})
	if len(samples) != n {
		t.Fatalf("got %d samples, want %d", len(samples), n)
	}
	// The request right behind the stall was due 5ms after it but could
	// only be sent once the stall ended.
	if got := samples[stallAt+1].Latency(); got < stall-2*interval {
		t.Errorf("request behind the stall: latency %v, want at least %v", got, stall-2*interval)
	}
	// A request due well before the stall is unaffected.
	if got := samples[stallAt-5].Latency(); got > stall/2 {
		t.Errorf("request before the stall: latency %v, want well under %v", got, stall/2)
	}
	// The stalled request's successors were sent late, not released late:
	// the generator kept its own schedule.
	behind := samples[stallAt+1]
	if behind.Sent.Sub(behind.Due) < stall-2*interval {
		t.Errorf("request behind the stall was sent %v after its due time", behind.Sent.Sub(behind.Due))
	}
	if behind.Lag() > stall/2 {
		t.Errorf("generator lag %v: the schedule itself slipped", behind.Lag())
	}
}

func TestOpenLoopStopsReleasingOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	samples := runOpenLoop(ctx, 1000, time.Millisecond, 2, func(i int) error {
		if i == 5 {
			cancel()
		}
		return nil
	})
	if len(samples) >= 1000 || len(samples) < 6 {
		t.Fatalf("released %d requests after cancel at 5", len(samples))
	}
}
