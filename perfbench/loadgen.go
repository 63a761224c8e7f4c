package main

import (
	"sync"
	"sync/atomic"
	"time"
)

// opTime is one operation's schedule and timing, as offsets from the
// start of its loop.
type opTime struct {
	Due   time.Duration // when the schedule said to send it
	Start time.Duration // when a connection actually sent it
	End   time.Duration // when its response had been read in full
}

// Latency is measured from the due time, so time spent waiting for a
// free connection behind a stalled request is charged to the request.
func (t opTime) Latency() time.Duration { return t.End - t.Due }

// Late is how far behind schedule the generator sent the request.
func (t opTime) Late() time.Duration { return t.Start - t.Due }

// Service is the time the request itself took once sent.
func (t opTime) Service() time.Duration { return t.End - t.Start }

// openLoop offers n operations at a fixed rate, operation i being due at
// i*interval, on conns connections: each connection takes the next
// operation in order, waits for its due time if early, and runs it. The
// schedule never waits for replies, so when the system stalls the queue
// grows and the later operations' latencies show it. do runs operation i
// and must be safe for concurrent use.
func openLoop(n int, interval time.Duration, conns int, do func(i int)) []opTime {
	times := make([]opTime, n)
	var next atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				due := time.Duration(i) * interval
				if wait := due - time.Since(start); wait > 0 {
					time.Sleep(wait)
				}
				t := opTime{Due: due, Start: time.Since(start)}
				do(i)
				t.End = time.Since(start)
				times[i] = t
			}
		}()
	}
	wg.Wait()
	return times
}

// closedLoop runs clients that each send their next operation as soon as
// the previous one returns, until d has passed. do(client, seq) runs one
// operation and returns how long the operation itself took (the caller
// leaves answer checking outside that span); the per-client durations
// are returned in order.
func closedLoop(clients int, d time.Duration, do func(client, seq int) time.Duration) [][]time.Duration {
	out := make([][]time.Duration, clients)
	deadline := time.Now().Add(d)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for seq := 0; time.Now().Before(deadline); seq++ {
				out[c] = append(out[c], do(c, seq))
			}
		}()
	}
	wg.Wait()
	return out
}
