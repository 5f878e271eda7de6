package main

import (
	"context"
	"sync"
	"testing"
	"time"
)

// A request that stalls charges its delay to the requests queued behind it:
// their latency runs from when they were due, not from when a worker got to
// them.
func TestStalledRequestChargesRequestsQueuedBehindIt(t *testing.T) {
	const stall = 150 * time.Millisecond
	s := NewScheduler()
	t0 := time.Now().Add(20 * time.Millisecond)
	var mu sync.Mutex
	latency := map[string]time.Duration{}
	add := func(name string, due time.Time, work time.Duration) {
		s.Push(due, func(due, _ time.Time) {
			time.Sleep(work)
			mu.Lock()
			latency[name] = time.Since(due)
			mu.Unlock()
		})
	}
	add("stall", t0, stall)
	add("b", t0.Add(10*time.Millisecond), 0)
	add("c", t0.Add(30*time.Millisecond), 0)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	s.Run(ctx, 1)

	if latency["stall"] < stall {
		t.Fatalf("stalled request latency %v, want >= %v", latency["stall"], stall)
	}
	if want := stall - 10*time.Millisecond; latency["b"] < want {
		t.Fatalf("b latency %v, want >= %v (queued behind the stall)", latency["b"], want)
	}
	if want := stall - 30*time.Millisecond; latency["c"] < want {
		t.Fatalf("c latency %v, want >= %v (queued behind the stall)", latency["c"], want)
	}
	_, wait := s.Lags()
	if len(wait) != 3 {
		t.Fatalf("%d connection-wait samples, want 3", len(wait))
	}
	var queued int
	for _, w := range wait {
		if w >= stall-30*time.Millisecond {
			queued++
		}
	}
	if queued != 2 {
		t.Fatalf("connection waits %v: want the two queued requests to have waited out the stall", wait)
	}
}

// Follow-up tasks a running task schedules run too, and Run returns once
// nothing is queued or running.
func TestSchedulerRunsFollowUpsAndReturns(t *testing.T) {
	s := NewScheduler()
	var mu sync.Mutex
	steps := 0
	var step func(due, started time.Time)
	step = func(due, started time.Time) {
		if started.Before(due) {
			t.Errorf("task started %v before it was due", due.Sub(started))
		}
		mu.Lock()
		steps++
		more := steps < 5
		mu.Unlock()
		if more {
			s.Push(time.Now(), step)
		}
	}
	s.Push(time.Now().Add(5*time.Millisecond), step)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	s.Run(ctx, 2)
	if steps != 5 {
		t.Fatalf("ran %d steps, want 5", steps)
	}
	if lag, _ := s.Lags(); len(lag) == 0 {
		t.Fatal("no generator-lag sample for the first, future-due task")
	}
}
