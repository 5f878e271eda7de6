package coordinator

// The cross-shard delivery day: PR 5's two-phase budget contract run over
// HTTP. Per tick, the coordinator's PacingController freezes the pacing /
// committed-spend snapshot and slices the tick cap per shard (phase 1),
// every backend runs its slice of the auctions against that frozen snapshot
// (phase 2), and the reported spend commits in fixed shard order with the
// budget clamp (phase 3). The controller calls the same float functions the
// in-process engines call, and JSON round-trips float64 bits exactly, so
// the result is byte-identical to RunDayWorkers(workers=shards).
//
// Failure model: sessions are in-memory on the backends, so a shard that
// dies mid-day loses its session and answers 409 afterwards. The
// coordinator then aborts the day everywhere and re-runs it from scratch —
// determinism makes the re-run byte-identical, so a crash costs wall time,
// never correctness. The one asymmetric window is the finish fan-out: some
// shards may commit durably while another dies first. For that the
// coordinator keeps the day's full directive record and replays the day on
// just the unfinished shards (their output is a pure function of the
// directives), converging every backend onto the same committed day.

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"time"

	"github.com/adaudit/impliedidentity/internal/faults"
	"github.com/adaudit/impliedidentity/internal/marketing"
	"github.com/adaudit/impliedidentity/internal/platform"
)

// dayRecord is one delivery-day attempt's replayable trace: everything a
// backend needs to re-derive its slice of the day without the other shards.
type dayRecord struct {
	session string
	adIDs   []string
	seed    int64
	dirs    [][]platform.TickDirective // per tick, per ad
	cents   []float64                  // set once every tick committed
}

// Deliver runs one coordinated delivery day over all shards, re-running it
// after shard failures until it commits everywhere or attempts run out.
// Every shard must be admitted for a fresh attempt to start — the delivery
// partition is position-mod-N over ALL shards, so a day cannot simply skip a
// quarantined one. Between attempts the loop performs the rejoin protocol
// inline (it already holds the fleet mutex the supervisor's TryRejoin would
// contend on), which is how a day survives a mid-day shard crash: the shard
// is relaunched by the supervisor, rejoined here, and the day re-runs
// byte-identically. An explicit worker count other than the shard count is
// refused with a 400.
func (c *Coordinator) Deliver(ctx context.Context, req marketing.DeliverRequest) (*marketing.DeliverResponse, error) {
	// The fleet topology fixes the shard count; a mismatched explicit
	// worker count would silently deliver a different (equally valid but
	// different-stream) day than the caller expects.
	if req.Workers != 0 && req.Workers != len(c.shards) {
		return nil, marketing.WithStatus(http.StatusBadRequest, fmt.Errorf(
			"coordinator: workers=%d conflicts with the %d-shard topology (omit workers or match it)", req.Workers, len(c.shards)))
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	start := c.clock.Now()
	daySeq := c.daySeq.Add(1)
	var rec *dayRecord
	var lastErr error
	for attempt := 1; attempt <= c.cfg.DayAttempts; attempt++ {
		if attempt > 1 {
			c.reg.Counter(MetricDayRestarts).Inc()
			c.reg.Counter(MetricDayRetries).Inc()
			// Holding c.mu across the backoff is the point, not an accident:
			// the lock freezes fleet-wide CRUD for the whole day including its
			// retries, because a mutation slipping between two attempts would
			// make the re-run a *different* (non-replayable) day.
			c.clock.Sleep(c.dayBackoff(daySeq, attempt)) //adlint:allow lockhold (day retries must keep fleet CRUD frozen; a mutation between attempts would change the re-run day)
		}
		// Heal before retrying: quarantined shards that answer a probe again
		// are walked through the rejoin protocol under the lock we already
		// hold. A rejoin that fails (still dead, digest gap from a partial
		// commit) leaves the shard quarantined; the partial-commit replay
		// below converges the day state so a later pass can succeed.
		c.rejoinQuarantinedLocked(ctx)
		var err error
		committed, pending, statusErr := c.dayStatus(ctx, req.AdIDs, attempt)
		switch {
		case statusErr != nil:
			err = statusErr
		case committed:
			// The failed attempt landed everywhere after all (e.g. the ack
			// was lost): the day is done.
			err = nil
		case len(pending) > 0 && len(pending) < len(c.shards):
			// Partial commit: a shard died inside the finish fan-out after
			// others committed. Replay the recorded day on the stragglers —
			// admission does not gate this path, because the replay targets
			// the pending shards directly and is exactly what converges a
			// quarantined shard's day state.
			if rec == nil || rec.cents == nil {
				return nil, fmt.Errorf("coordinator: day partially committed with no replayable record (shards %v pending): %w", pending, lastErr)
			}
			err = c.replayDay(ctx, rec, pending)
		case len(c.quarantinedIdx()) > 0:
			// A fresh attempt needs the whole fleet: the day's user partition
			// spans every shard index.
			err = fmt.Errorf("coordinator: day needs full fleet, shards %v quarantined: %w", c.quarantinedIdx(), ErrShardDown)
		default:
			rec = &dayRecord{
				session: fmt.Sprintf("day-%d-%d", req.Seed, daySeq),
				adIDs:   req.AdIDs,
				seed:    req.Seed,
			}
			err = c.runDayOnce(ctx, rec)
		}
		if err == nil {
			c.reg.Counter(MetricDays).Inc()
			c.reg.Histogram(MetricDayLatency).Observe(c.clock.Now().Sub(start))
			return &marketing.DeliverResponse{Delivered: len(req.AdIDs)}, nil
		}
		lastErr = err
		if rec != nil {
			c.abortDay(rec.session)
		}
		if ctx.Err() != nil {
			return nil, lastErr
		}
		if !marketing.Retryable(err) && !marketing.IsSessionConflict(err) && !errors.Is(err, ErrShardDown) {
			// Terminal API answer (validation, divergence): re-running the
			// day would only repeat it.
			return nil, lastErr
		}
	}
	return nil, fmt.Errorf("%w: %d attempts: %w", ErrDayExhausted, c.cfg.DayAttempts, lastErr)
}

// dayBackoff is the wait before retry `attempt`: exponential from DayBackoff,
// capped at DayBackoffMax, with deterministic jitter mixed from the day
// sequence and attempt number — reproducible in tests (injected clock, fixed
// sequence), yet de-synchronized across days and fleets.
func (c *Coordinator) dayBackoff(daySeq uint64, attempt int) time.Duration {
	backoff := c.cfg.DayBackoff << uint(attempt-2) // attempt 2 waits DayBackoff
	if backoff <= 0 || backoff > c.cfg.DayBackoffMax {
		backoff = c.cfg.DayBackoffMax
	}
	// Jitter in [0, backoff/2): derived, not sampled, so a replayed test run
	// waits exactly as long as the original.
	jitter := time.Duration(faults.Mix64(int64(daySeq), uint64(attempt)) % uint64(backoff/2+1))
	backoff += jitter
	if backoff > c.cfg.DayBackoffMax {
		backoff = c.cfg.DayBackoffMax
	}
	return backoff
}

// rejoinQuarantinedLocked probes every quarantined shard and runs the rejoin
// protocol for the ones that answer. Called with c.mu held (Deliver's retry
// preamble); failures leave the shard quarantined for a later pass or the
// supervisor.
func (c *Coordinator) rejoinQuarantinedLocked(ctx context.Context) {
	for _, idx := range c.quarantinedIdx() {
		pctx, cancel := context.WithTimeout(ctx, 2*time.Second)
		err := c.ProbeShard(pctx, idx)
		cancel()
		c.observeOutcome(idx, err)
		if err != nil {
			continue
		}
		c.health.MarkRecovering(idx)
		_ = c.rejoinLocked(ctx, idx)
	}
}

// runDayOnce runs one full day attempt across all shards, recording the
// directive trace into rec as it goes.
func (c *Coordinator) runDayOnce(ctx context.Context, rec *dayRecord) error {
	shards := len(c.shards)
	inits := make([]*platform.DayInit, shards)
	err := c.scatter(ctx, "begin day", c.shards, func(ctx context.Context, sc *shardConn) error {
		init, err := sc.client.BeginDay(ctx, marketing.BeginDayRequest{
			Session: rec.session,
			AdIDs:   rec.adIDs,
			Seed:    rec.seed,
			Shard:   sc.index,
			Shards:  shards,
		})
		if err != nil {
			return err
		}
		inits[sc.index] = init
		return nil
	})
	if err != nil {
		return err
	}
	if err := assertPlansAgree(c.shards, inits); err != nil {
		return err
	}
	ctrl, err := platform.NewPacingController(inits[0], shards)
	if err != nil {
		return err
	}

	rec.dirs = make([][]platform.TickDirective, 0, ctrl.Ticks())
	for tick := 0; tick < ctrl.Ticks(); tick++ {
		dirs := ctrl.TickDirectives(tick)
		rec.dirs = append(rec.dirs, dirs)
		perShard := make([][]float64, shards)
		err := c.scatter(ctx, "day tick", c.shards, func(ctx context.Context, sc *shardConn) error {
			rep, err := sc.client.DayTick(ctx, marketing.DayTickRequest{Session: rec.session, Tick: tick, Directives: dirs})
			if err != nil {
				return err
			}
			perShard[sc.index] = rep.Spent
			return nil
		})
		if err != nil {
			return err
		}
		if err := ctrl.CommitTick(perShard); err != nil {
			return err
		}
		c.reg.Counter(MetricDayTicks).Inc()
	}

	rec.cents = ctrl.SpendCents()
	return c.scatter(ctx, "finish day", c.shards, func(ctx context.Context, sc *shardConn) error {
		return sc.client.FinishDay(ctx, rec.session, rec.cents)
	})
}

// replayDay re-runs a fully recorded day on the given shards only. Each
// shard's output is a pure function of (CRUD state, seed, shard, shards,
// directives), so feeding the recorded directives reproduces exactly the
// slice the shard would have committed in the original attempt.
func (c *Coordinator) replayDay(ctx context.Context, rec *dayRecord, pending []int) error {
	session := fmt.Sprintf("%s-replay-%d", rec.session, c.daySeq.Add(1))
	for _, idx := range pending {
		sc := c.shards[idx]
		if _, err := sc.client.BeginDay(ctx, marketing.BeginDayRequest{
			Session: session,
			AdIDs:   rec.adIDs,
			Seed:    rec.seed,
			Shard:   sc.index,
			Shards:  len(c.shards),
		}); err != nil {
			return fmt.Errorf("coordinator: replay begin on %s: %w", sc.label, err)
		}
		for tick, dirs := range rec.dirs {
			if _, err := sc.client.DayTick(ctx, marketing.DayTickRequest{Session: session, Tick: tick, Directives: dirs}); err != nil {
				return fmt.Errorf("coordinator: replay tick %d on %s: %w", tick, sc.label, err)
			}
		}
		if err := sc.client.FinishDay(ctx, session, rec.cents); err != nil {
			return fmt.Errorf("coordinator: replay finish on %s: %w", sc.label, err)
		}
	}
	return nil
}

// dayStatus probes whether a previous attempt's commit landed. On the first
// attempt there is nothing to probe. It reports committed=true when every
// shard shows every ad completed or rejected, and the pending shard indexes
// otherwise. A probe that cannot reach a shard reports that shard pending
// (the retry loop will reach it or run out of attempts).
func (c *Coordinator) dayStatus(ctx context.Context, adIDs []string, attempt int) (committed bool, pending []int, err error) {
	if attempt == 1 {
		return false, c.allShards(), nil
	}
	for _, sc := range c.shards {
		done := true
		for _, id := range adIDs {
			ad, err := sc.client.GetAd(ctx, id)
			if err != nil {
				if ctx.Err() != nil {
					return false, nil, ctx.Err()
				}
				done = false
				break
			}
			if ad.Status != "COMPLETED" && ad.Status != "REJECTED" {
				done = false
				break
			}
		}
		if !done {
			pending = append(pending, sc.index)
		}
	}
	return len(pending) == 0, pending, nil
}

// allShards lists every shard index.
func (c *Coordinator) allShards() []int {
	out := make([]int, len(c.shards))
	for i := range out {
		out[i] = i
	}
	return out
}

// abortDay best-effort aborts a session everywhere, with its own deadline so
// a dead shard cannot hang the retry loop; errors are ignored (a shard that
// lost the session already reports the abort as done).
func (c *Coordinator) abortDay(session string) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = c.scatter(ctx, "abort day", c.shards, func(ctx context.Context, sc *shardConn) error {
		_ = sc.client.AbortDay(ctx, session)
		return nil
	})
}

// assertPlansAgree checks that every shard resolved the identical day plan —
// same tick count, pacing mode, and per-ad identity, budget, and starting
// bid. Divergence means the backends' CRUD state or world seeds differ, and
// delivering would produce garbage rather than a sharded day.
func assertPlansAgree(shards []*shardConn, inits []*platform.DayInit) error {
	ref := inits[0]
	for i := 1; i < len(inits); i++ {
		in := inits[i]
		if in.Ticks != ref.Ticks || in.Greedy != ref.Greedy || len(in.Ads) != len(ref.Ads) {
			return divergence("day plan", shards[i],
				fmt.Sprintf("ticks=%d greedy=%v ads=%d", in.Ticks, in.Greedy, len(in.Ads)),
				fmt.Sprintf("ticks=%d greedy=%v ads=%d", ref.Ticks, ref.Greedy, len(ref.Ads)))
		}
		for j := range in.Ads {
			if in.Ads[j] != ref.Ads[j] {
				return divergence("day plan ad", shards[i],
					fmt.Sprintf("%+v", in.Ads[j]), fmt.Sprintf("%+v", ref.Ads[j]))
			}
		}
	}
	return nil
}
