package platform

// The coordinated day session: one shard backend's side of the cross-process
// delivery protocol (internal/coordinator drives the other side). A session
// runs one deliveryShard of the same engine RunDayWorkers runs — the whole
// audience for a 1-shard day — but one externally paced tick at a time:
//
//	Begin   resolve the ad set, initialize pacing, report the day plan;
//	Tick    apply the coordinator's frozen (pacing, spent, cap) snapshot,
//	        run phase 2 for this shard, report accrued spend;
//	Finish  install the day's stats with the coordinator's authoritative
//	        spend, complete the ads, emit the durable mutation;
//	Abort   discard everything.
//
// Nothing a session does before Finish touches durable state: stats live in
// a session-local map, served-log rows are buffered, no mutation is emitted.
// A shard process that dies mid-day therefore loses the session entirely and
// cleanly — the coordinator detects the conflict, aborts the day everywhere,
// and re-runs it; determinism makes the re-run byte-identical.
//
// Sessions are deliberately in-memory and single: one coordinator owns a
// backend. Begin replaces any existing session (that IS the recovery path),
// and RunDayWorkers refuses to run while a session is active.

import (
	"errors"
	"fmt"
	"math"
	"time"
)

// ErrSessionConflict reports a session-scoped call whose session name does
// not match the backend's active delivery session — none at all (the shard
// restarted and lost it), or another coordinator's. The marketing layer maps
// it to HTTP 409; the coordinator responds by aborting and re-running the
// day.
var ErrSessionConflict = errors.New("platform: delivery session conflict")

// daySession is the in-memory state of one coordinated delivery day on one
// shard backend.
type daySession struct {
	name   string
	seed   int64
	shard  int
	shards int

	active []*Ad
	elig   *eligIndex
	stats  map[string]*AdStats
	sh     *deliveryShard // served rows stay buffered here until Finish

	nextTick int
	last     *TickReport // previous tick's report, for idempotent replay
	start    time.Time
}

// BeginDaySession opens a coordinated delivery session named `session` for
// one shard of a `shards`-wide day. It resolves the ad set exactly like
// RunDayWorkers (rejected ads skipped, other non-active statuses fatal) and
// returns the day plan: tick count, pacing mode, and per-ad budgets and
// starting bids in run order. The user partition is by position in the
// globally sorted eligible-user list (position mod shards), the same
// round-robin split RunDayWorkers uses — so an N-shard coordinated day
// reproduces RunDayWorkers(workers=N) bit for bit, 1-shard days included.
//
// Any existing session is replaced: sessions are volatile scratch, and
// replacement is how a coordinator recovers a backend that holds a stale
// day.
func (p *Platform) BeginDaySession(session string, adIDs []string, seed int64, shard, shards int) (*DayInit, error) {
	if session == "" {
		return nil, fmt.Errorf("platform: day session needs a name")
	}
	if shards < 1 || shards > maxDeliveryWorkers {
		return nil, fmt.Errorf("platform: shard count %d outside [1, %d]", shards, maxDeliveryWorkers)
	}
	if shard < 0 || shard >= shards {
		return nil, fmt.Errorf("platform: shard %d outside [0, %d)", shard, shards)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	active, elig, init, err := p.prepareDay(adIDs)
	if err != nil {
		return nil, err
	}
	sess := &daySession{
		name:   session,
		seed:   seed,
		shard:  shard,
		shards: shards,
		active: active,
		elig:   elig,
		stats:  make(map[string]*AdStats, len(active)),
		sh:     newDeliveryShard(elig, seed, shard, shards, len(active), p.cfg.Ticks),
		start:  p.deliveryClockNow(),
	}
	for _, ad := range active {
		sess.stats[ad.ID] = p.newAdStats(ad.ID)
	}
	p.session = sess
	init.Session = session
	return init, nil
}

// DaySessionTick runs phase 2 of one tick under the coordinator's frozen
// snapshot. dirs must carry one directive per active ad in run order. Ticks
// must arrive in order; re-sending the previous tick replays its recorded
// report without re-running anything (so a retried RPC whose response was
// lost is harmless), and any other tick number is a conflict.
//
// The report's Spent vector is this shard's tick spend for a multi-shard
// day (the coordinator folds it with the budget clamp, in shard order);
// for a 1-shard day it is the backend's committed absolute spend — a
// 1-shard day charges spend per auction with a per-auction clamp, and only
// that addition order reproduces the historical digests, so there the
// backend is authoritative and the coordinator adopts its totals.
func (p *Platform) DaySessionTick(session string, tick int, dirs []TickDirective) (*TickReport, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	sess, err := p.sessionLocked(session)
	if err != nil {
		return nil, err
	}
	if sess.last != nil && tick == sess.nextTick-1 {
		rep := *sess.last
		rep.Spent = append([]float64(nil), sess.last.Spent...)
		return &rep, nil
	}
	if tick != sess.nextTick {
		return nil, fmt.Errorf("platform: session %q expects tick %d, got %d: %w", session, sess.nextTick, tick, ErrSessionConflict)
	}
	ticks := p.cfg.Ticks
	if tick >= ticks {
		return nil, fmt.Errorf("platform: tick %d beyond day length %d: %w", tick, ticks, ErrSessionConflict)
	}
	if len(dirs) != len(sess.active) {
		return nil, fmt.Errorf("platform: session %q got %d directives, want %d: %w", session, len(dirs), len(sess.active), ErrSessionConflict)
	}

	before := sess.sh.auctions
	p.shardTick(sess.sh, sess.active, sess.elig, tick, dirs)
	rep := &TickReport{Tick: tick, Spent: make([]float64, len(sess.active)), Auctions: sess.sh.auctions - before}
	sess.sh.reportSpend(rep.Spent)
	sess.nextTick++
	sess.last = rep

	out := *rep
	out.Spent = append([]float64(nil), rep.Spent...)
	return &out, nil
}

// FinishDaySession commits a completed session: the session's stats become
// the ads' frozen insights with the coordinator's authoritative per-ad
// SpendCents (identical on every shard — the coordinator rounds its
// committed float totals exactly once and distributes the result), the ads
// complete, the durable day mutation is emitted, and the buffered served
// rows flush into the retraining buffer. The day must have run every tick.
func (p *Platform) FinishDaySession(session string, spendCents []float64) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	sess, err := p.sessionLocked(session)
	if err != nil {
		return err
	}
	if sess.nextTick != p.cfg.Ticks {
		return fmt.Errorf("platform: session %q finished at tick %d of %d: %w", session, sess.nextTick, p.cfg.Ticks, ErrSessionConflict)
	}
	if len(spendCents) != len(sess.active) {
		return fmt.Errorf("platform: session %q got %d spend totals, want %d: %w", session, len(spendCents), len(sess.active), ErrSessionConflict)
	}

	for i, ad := range sess.active {
		if c := spendCents[i]; math.IsNaN(c) || c < 0 || c > float64(ad.DailyBudgetCents) {
			return fmt.Errorf("platform: session %q got spend %v¢ for ad %s, outside [0, %d]", session, c, ad.ID, ad.DailyBudgetCents)
		}
	}

	mergeShardStats(sess.stats, sess.active, sess.sh)
	var impressions int64
	for i, ad := range sess.active {
		ad.Status = StatusCompleted
		st := sess.stats[ad.ID]
		st.SpendCents = spendCents[i]
		p.stats[ad.ID] = st
		impressions += int64(st.Impressions)
	}
	del := &DeliveryState{Seed: sess.seed, Workers: sess.shards, Shard: sess.shard, Shards: sess.shards}
	for _, ad := range sess.active {
		del.Completed = append(del.Completed, ad.ID)
		del.Stats = append(del.Stats, *adStatsState(p.stats[ad.ID]))
	}
	sortDeliveryState(del)
	p.emit(Mutation{Kind: MutDayDelivered, Delivery: del})
	for _, row := range sess.sh.served {
		p.recordServed(row.userIdx, row.ad, row.clicked)
	}
	p.observeDelivery(sess.start, int64(p.cfg.Ticks), sess.sh.auctions, impressions, sess.shards, 0)
	p.session = nil
	return nil
}

// AbortDaySession discards the named session. Aborting when no session is
// active is a no-op (the abort already took effect — likely a retry, or the
// shard restarted); aborting someone else's session is a conflict.
func (p *Platform) AbortDaySession(session string) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.session == nil {
		return nil
	}
	if p.session.name != session {
		return fmt.Errorf("platform: session %q active, cannot abort %q: %w", p.session.name, session, ErrSessionConflict)
	}
	p.session = nil
	return nil
}

// SessionActive reports whether a coordinated day session is currently open
// on this shard — a mid-recovery signal the rejoin handshake surfaces so a
// supervisor never readmits a shard that is still inside someone's day.
func (p *Platform) SessionActive() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.session != nil
}

// sessionLocked resolves a session name to the active session; the caller
// holds p.mu.
func (p *Platform) sessionLocked(session string) (*daySession, error) {
	if p.session == nil {
		return nil, fmt.Errorf("platform: no delivery session active, want %q: %w", session, ErrSessionConflict)
	}
	if p.session.name != session {
		return nil, fmt.Errorf("platform: session %q active, want %q: %w", p.session.name, session, ErrSessionConflict)
	}
	return p.session, nil
}
