package main

import (
	"testing"
	"time"
)

// A stalled request on the only connection delays every request due
// during the stall; each is charged from its due time, not from when it
// was finally sent.
func TestOpenLoopChargesStallToLaterRequests(t *testing.T) {
	const interval = 2 * time.Millisecond
	const stall = 60 * time.Millisecond
	times := openLoop(20, interval, 1, func(i int) {
		if i == 0 {
			time.Sleep(stall)
		}
	})
	for i, tm := range times {
		if tm.Due != time.Duration(i)*interval {
			t.Fatalf("op %d due at %v, want %v", i, tm.Due, time.Duration(i)*interval)
		}
	}
	if got := times[0].Service(); got < stall {
		t.Fatalf("stalled op served in %v, want at least %v", got, stall)
	}
	// Op 5 was due at 10ms but could not start before the stall ended.
	op := times[5]
	if op.Late() < stall-5*interval {
		t.Fatalf("op 5 late by %v, want at least %v", op.Late(), stall-5*interval)
	}
	if op.Latency() < op.Late() || op.Latency() < stall-5*interval {
		t.Fatalf("op 5 latency %v does not include its %v wait", op.Latency(), op.Late())
	}
	if op.Service() > op.Latency()/2 {
		t.Fatalf("op 5 service %v: the latency should be mostly the wait", op.Service())
	}
}

// With two connections, a stall on one leaves the other on schedule.
func TestOpenLoopSecondConnectionKeepsSchedule(t *testing.T) {
	const interval = 5 * time.Millisecond
	times := openLoop(8, interval, 2, func(i int) {
		if i == 0 {
			time.Sleep(100 * time.Millisecond)
		}
	})
	for i := 1; i < 8; i++ {
		if late := times[i].Late(); late > 50*time.Millisecond {
			t.Fatalf("op %d late by %v behind a stall on the other connection", i, late)
		}
	}
}

func TestClosedLoopRunsEveryClientUntilDeadline(t *testing.T) {
	busy := closedLoop(2, 30*time.Millisecond, func(c, seq int) time.Duration {
		time.Sleep(time.Millisecond)
		return time.Millisecond
	})
	if len(busy) != 2 || len(busy[0]) == 0 || len(busy[1]) == 0 {
		t.Fatalf("per-client operation counts %d/%d, want both non-zero", len(busy[0]), len(busy[1]))
	}
}
