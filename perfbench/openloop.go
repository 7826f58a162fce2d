package main

import (
	"context"
	"sync"
	"time"
)

// sample is one open-loop request: when it was due, when the generator
// released it, when a connection picked it up, and when it completed.
type sample struct {
	Due, Released, Sent, Done time.Time
	Err                       error
}

// Latency is measured from the due time, so time spent queued behind a
// stalled request counts against every request that waited.
func (s sample) Latency() time.Duration { return s.Done.Sub(s.Due) }

// Lag is how late the generator itself released the request.
func (s sample) Lag() time.Duration { return s.Released.Sub(s.Due) }

// runOpenLoop issues n requests on a fixed schedule — request i is due
// at start + i·interval whether or not earlier ones have completed — over
// conns concurrent callers, and returns one sample per request. It stops
// releasing requests when ctx ends; requests never released are absent.
func runOpenLoop(ctx context.Context, n int, interval time.Duration, conns int, do func(i int) error) []sample {
	out := make([]sample, n)
	queue := make(chan int, n) // sized to the number of sends: release never blocks
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				out[i].Sent = time.Now()
				out[i].Err = do(i)
				out[i].Done = time.Now()
			}
		}()
	}
	start := time.Now()
	released := n
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * interval)
		if d := time.Until(due); d > 0 {
			t := time.NewTimer(d)
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
			}
		}
		if ctx.Err() != nil {
			released = i
			break
		}
		out[i].Due, out[i].Released = due, time.Now()
		queue <- i
	}
	close(queue)
	wg.Wait()
	return out[:released]
}
