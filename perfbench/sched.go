package main

import (
	"container/heap"
	"context"
	"sync"
	"time"
)

// Task is one request of the open-loop load. Run is called with the time the
// request was due and the time a worker began it; it may schedule follow-up
// tasks on the scheduler (the next step of the same advertiser session).
type Task struct {
	Due time.Time
	Run func(due, started time.Time)
	seq uint64
}

// Scheduler is the open-loop driver: tasks become due on a fixed schedule
// whether or not earlier ones finished, and a fixed pool of workers (one
// per connection) issues them in due order. A task's latency is charged
// from its due time, so a stalled request also charges its delay to every
// request queued behind it. The one exception is a worker that sat idle
// waiting for the task and woke late: that lateness is the generator's
// (on a virtual machine an idle vCPU can take a few hundred microseconds to
// wake), it is recorded as generator lag, and the task counts as due when
// the worker woke.
type Scheduler struct {
	mu      sync.Mutex
	queue   taskHeap
	seq     uint64
	running int
	changed chan struct{} // closed and replaced whenever queue or running changes

	// genLag holds how late an idle worker woke for a due task: the
	// generator's own lateness, separate from waiting for a busy worker.
	genLag []time.Duration
	// connWait holds, per task, the delay from due to a worker starting it.
	connWait []time.Duration
}

// NewScheduler returns an empty scheduler.
func NewScheduler() *Scheduler {
	return &Scheduler{changed: make(chan struct{})}
}

// Push schedules run to be due at due.
func (s *Scheduler) Push(due time.Time, run func(due, started time.Time)) {
	s.mu.Lock()
	s.seq++
	heap.Push(&s.queue, &Task{Due: due, Run: run, seq: s.seq})
	s.notifyLocked()
	s.mu.Unlock()
}

func (s *Scheduler) notifyLocked() {
	close(s.changed)
	s.changed = make(chan struct{})
}

// Run issues tasks on the given number of workers until the queue is empty
// and no task is running, or ctx ends. It returns once every worker exited.
func (s *Scheduler) Run(ctx context.Context, workers int) {
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.work(ctx)
		}()
	}
	wg.Wait()
}

func (s *Scheduler) work(ctx context.Context) {
	// wokeFor is the task this worker's timer last fired for, at wokeAt.
	var wokeFor *Task
	var wokeAt time.Time
	for {
		s.mu.Lock()
		if len(s.queue) == 0 && s.running == 0 {
			s.mu.Unlock()
			return
		}
		changed := s.changed
		if len(s.queue) == 0 {
			s.mu.Unlock()
			select {
			case <-changed:
			case <-ctx.Done():
				return
			}
			continue
		}
		head := s.queue[0]
		if wait := time.Until(head.Due); wait > 0 {
			s.mu.Unlock()
			timer := time.NewTimer(wait)
			select {
			case <-timer.C:
				wokeFor, wokeAt = head, time.Now()
				s.mu.Lock()
				s.genLag = append(s.genLag, wokeAt.Sub(head.Due))
				s.mu.Unlock()
			case <-changed:
			case <-ctx.Done():
				timer.Stop()
				return
			}
			timer.Stop()
			continue
		}
		heap.Pop(&s.queue)
		s.running++
		s.mu.Unlock()

		// An idle worker that woke late for the task it waited on was
		// late on its own account: nothing queued the task behind other
		// work, so the lateness is the generator's (genLag), not the
		// system's, and the task counts as due when the worker woke.
		due := head.Due
		if head == wokeFor {
			due = wokeAt
		}
		wokeFor = nil
		started := time.Now()
		head.Run(due, started)

		s.mu.Lock()
		s.connWait = append(s.connWait, started.Sub(due))
		s.running--
		s.notifyLocked()
		s.mu.Unlock()
	}
}

// Lags returns the generator-lag and connection-wait samples.
func (s *Scheduler) Lags() (genLag, connWait []time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]time.Duration(nil), s.genLag...), append([]time.Duration(nil), s.connWait...)
}

type taskHeap []*Task

func (h taskHeap) Len() int { return len(h) }
func (h taskHeap) Less(i, j int) bool {
	if !h[i].Due.Equal(h[j].Due) {
		return h[i].Due.Before(h[j].Due)
	}
	return h[i].seq < h[j].seq
}
func (h taskHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *taskHeap) Push(x any)   { *h = append(*h, x.(*Task)) }
func (h *taskHeap) Pop() any {
	old := *h
	t := old[len(old)-1]
	*h = old[:len(old)-1]
	return t
}
