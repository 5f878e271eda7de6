package coordinator

// The mutation journal and the rejoin protocol: how the fleet keeps
// accepting CRUD writes while a shard is down, and how a resurrected shard
// catches up and earns its way back into the fan-out.
//
// While every shard is admitted, mutations fan out everywhere and the
// journal is empty. When a shard is quarantined, each mutation still
// executes on the admitted shards, and its RESULT — the request plus the
// fleet-agreed response and the post-apply census — is appended to a bounded
// journal keyed by the fan-out idempotency key. The journal is a queue, not
// an evicting ring: entries a down shard still needs are never discarded, so
// when the journal fills, new mutations are refused with a typed error the
// router maps to 503 + Retry-After (the client's idempotent retry composes
// with it). Rejoin replays the gap in order onto the recovered shard — with
// an applied-probe per entry, because the shard may have executed the
// in-flight mutation just before dying and its idempotency cache did not
// survive the restart — then passes the cross-shard state-digest gate before
// the shard is readmitted.

import (
	"context"
	"fmt"

	"github.com/adaudit/impliedidentity/internal/marketing"
	"github.com/adaudit/impliedidentity/internal/platform"
	"github.com/adaudit/impliedidentity/internal/supervisor"
)

// Typed fleet-degradation errors. Each wraps marketing.ErrUnavailable, so
// the router answers 503 + Retry-After: the condition is real but expected
// to clear — callers retry.
var (
	// ErrShardDown marks an operation that cannot be served while a shard is
	// quarantined (delivery days, partitioned insights, an empty read pool).
	ErrShardDown error = &fleetError{"coordinator: shard quarantined"}
	// ErrJournalFull marks a mutation refused because the catch-up journal
	// is at capacity: accepting it would either lose it (eviction) or grow
	// without bound.
	ErrJournalFull error = &fleetError{"coordinator: mutation journal full"}
	// ErrDayExhausted marks a delivery day abandoned after the configured
	// attempt budget.
	ErrDayExhausted error = &fleetError{"coordinator: delivery day attempts exhausted"}
)

// fleetError is a fleet-degradation sentinel: its own message, unwrapping
// to marketing.ErrUnavailable.
type fleetError struct{ msg string }

func (e *fleetError) Error() string { return e.msg }
func (e *fleetError) Unwrap() error { return marketing.ErrUnavailable }

// Journal entry kinds — one per replicated CRUD mutation.
const (
	entryAudience = "audience"
	entryCampaign = "campaign"
	entryAd       = "ad"
	entryAppeal   = "appeal"
)

// journalEntry is one missed mutation: the request, the idempotency key the
// admitted shards executed under (replay forwards the same key), the
// fleet-agreed outcome (replay asserts the resurrected shard reproduces it),
// and the post-apply replicated census (the applied-probe: a shard whose
// snapshot census already reached these counts executed this entry before it
// died).
type journalEntry struct {
	seq  uint64
	key  string
	kind string

	// Request payload; only the kind's fields are set.
	audienceName   string
	audienceHashes []string
	campaignReq    marketing.CreateCampaignRequest
	adReq          marketing.CreateAdRequest
	appealAdID     string

	// Fleet-agreed outcome.
	wantID      string
	wantStatus  string
	wantMatched int

	// Replicated census after this entry applied.
	postAudiences, postCampaigns, postAds int

	// pending holds the quarantined shard indexes that still need this
	// entry; the entry is pruned once empty.
	pending map[int]bool
}

// mutationJournal is the bounded catch-up queue. All structural mutation
// happens under the coordinator's fleet mutex (appends ride CRUD fan-outs,
// drains ride rejoins — both serialized); the journal adds no lock of its
// own beyond that contract.
type mutationJournal struct {
	cap     int
	entries []*journalEntry
	byKey   map[string]*journalEntry
	seq     uint64

	// Fleet census model, valid only while the journal is non-empty: the
	// replicated object counts after the newest entry, used to stamp each
	// entry's post-apply census without an RPC per append.
	counts      platform.Inventory
	countsValid bool
}

func newMutationJournal(capacity int) *mutationJournal {
	return &mutationJournal{cap: capacity, byKey: map[string]*journalEntry{}}
}

func (j *mutationJournal) full() bool { return len(j.entries) >= j.cap }

func (j *mutationJournal) depth() int { return len(j.entries) }

// bump advances the census model for one mutation kind.
func (inv *mutationJournal) bumpCounts(kind string) {
	switch kind {
	case entryAudience:
		inv.counts.Audiences++
	case entryCampaign:
		inv.counts.Campaigns++
	case entryAd:
		inv.counts.Ads++
	}
}

// dropShard removes a rejoined shard from every pending set and prunes
// fully-drained entries; an emptied journal invalidates the census model
// (the next quarantine window re-fetches it).
func (j *mutationJournal) dropShard(shard int) {
	kept := j.entries[:0]
	for _, e := range j.entries {
		delete(e.pending, shard)
		if len(e.pending) == 0 {
			delete(j.byKey, e.key)
			continue
		}
		kept = append(kept, e)
	}
	j.entries = kept
	if len(j.entries) == 0 {
		j.countsValid = false
	}
}

// mutationSpec parameterizes one replicated CRUD fan-out for runMutation.
type mutationSpec[T any] struct {
	// op labels metrics and errors ("create ad").
	op string
	// call executes the mutation on one shard (the idempotency key is
	// already on the context).
	call func(ctx context.Context, sc *shardConn) (*T, error)
	// same reports cross-shard response agreement; render formats a
	// response for the divergence error.
	same   func(a, b T) bool
	render func(T) string
	// record builds the journal entry (kind, payload, fleet outcome) from
	// the agreed response; runMutation fills seq/key/census/pending.
	record func(resp T) *journalEntry
}

// runMutation is the replicated-CRUD engine: execute on every admitted
// shard, assert agreement, and journal the entry for quarantined shards.
// The caller holds c.mu. A shard whose fan-out call fails AND whose health
// score crossed to down is quarantined inline and journaled instead of
// failing the fleet; failures on shards that are still considered healthy
// fail the mutation as before (the caller's idempotent retry converges).
func runMutation[T any](ctx context.Context, c *Coordinator, spec mutationSpec[T]) (*T, error) {
	// The caller's idempotency key rides on ctx; "" mints a fleet key.
	key := marketing.IdempotencyKeyFrom(ctx)
	if key == "" {
		key = c.mintFleetKey()
	}
	admitted, quarantined := c.admissionSnapshot()
	if len(admitted) == 0 {
		return nil, fmt.Errorf("coordinator: %s: no admitted shards: %w", spec.op, ErrShardDown)
	}
	if len(quarantined) > 0 && c.journal.full() && c.journal.byKey[key] == nil {
		c.reg.Counter(MetricJournalRejects).Inc()
		return nil, fmt.Errorf("coordinator: %s: %w (%d entries queued for shards %v)",
			spec.op, ErrJournalFull, c.journal.depth(), quarantined)
	}

	out := make([]*T, len(c.shards))
	errs := c.scatterEach(ctx, spec.op, admitted, func(ctx context.Context, sc *shardConn) error {
		resp, err := spec.call(marketing.WithIdempotencyKey(ctx, key), sc)
		if err != nil {
			return err
		}
		out[sc.index] = resp
		return nil
	})

	// A shard that failed this fan-out and has now crossed the down
	// threshold is quarantined inline: its copy of the mutation is ambiguous
	// (it may have applied just before dying), which is exactly what the
	// journal's replay probes resolve.
	var firstErr error
	for _, sc := range admitted {
		err := errs[sc.index]
		if err == nil {
			continue
		}
		if c.health.State(sc.index) == supervisor.Down && c.Quarantine(sc.index) {
			quarantined = append(quarantined, sc.index)
			continue
		}
		if firstErr == nil {
			firstErr = err
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}

	var ref *T
	var refConn *shardConn
	for _, sc := range admitted {
		resp := out[sc.index]
		if resp == nil {
			continue // quarantined mid-flight
		}
		if ref == nil {
			ref, refConn = resp, sc
			continue
		}
		if !spec.same(*resp, *ref) {
			return nil, divergence(spec.op, sc, spec.render(*resp), spec.render(*ref))
		}
	}
	if ref == nil {
		return nil, fmt.Errorf("coordinator: %s: every shard went down mid-mutation: %w", spec.op, ErrShardDown)
	}

	if len(quarantined) > 0 {
		if err := c.journalAppend(ctx, refConn, key, spec.record(*ref), quarantined); err != nil {
			// The mutation applied on the admitted shards but could not be
			// recorded; fail the call so the caller's idempotent retry
			// re-runs it (admitted shards dedupe) and records it.
			return nil, fmt.Errorf("coordinator: %s applied but not journaled, retry: %w", spec.op, err)
		}
	}
	return ref, nil
}

// journalAppend records one executed mutation for the given quarantined
// shards. The census model is bootstrapped from the reference shard's
// inventory (which already includes this mutation) on the first append of a
// quarantine window and advanced arithmetically afterwards.
func (c *Coordinator) journalAppend(ctx context.Context, ref *shardConn, key string, e *journalEntry, pending []int) error {
	j := c.journal
	if existing := j.byKey[key]; existing != nil {
		// A retried mutation that was already recorded: just widen the
		// pending set (a second shard may have gone down since).
		for _, idx := range pending {
			existing.pending[idx] = true
		}
		return nil
	}
	if j.countsValid {
		j.bumpCounts(e.kind)
	} else {
		inv, err := ref.client.Inventory(ctx)
		if err != nil {
			return fmt.Errorf("journal census bootstrap on %s: %w", ref.label, err)
		}
		j.counts, j.countsValid = *inv, true
	}
	j.seq++
	e.seq, e.key = j.seq, key
	e.postAudiences, e.postCampaigns, e.postAds = j.counts.Audiences, j.counts.Campaigns, j.counts.Ads
	e.pending = make(map[int]bool, len(pending))
	for _, idx := range pending {
		e.pending[idx] = true
	}
	j.entries = append(j.entries, e)
	j.byKey[key] = e
	c.reg.Counter(MetricJournalAppends).Inc()
	c.reg.Gauge(MetricJournalDepth).Set(int64(j.depth()))
	return nil
}

// replayJournalLocked replays the journal gap onto a recovered shard, in
// order. snapshot is the shard's census at rejoin start: an entry whose
// post-apply census the snapshot already reached was executed before the
// shard died and is skipped (status-probed for appeals); everything newer is
// executed with the original idempotency key and must reproduce the recorded
// fleet outcome bit for bit.
func (c *Coordinator) replayJournalLocked(ctx context.Context, sc *shardConn, snapshot platform.Inventory) error {
	for _, e := range c.journal.entries {
		if !e.pending[sc.index] {
			continue
		}
		applied, err := c.entryApplied(ctx, sc, e, snapshot)
		if err != nil {
			return err
		}
		if applied {
			c.reg.Counter(MetricJournalSkipped).Inc()
			continue
		}
		if err := c.replayEntry(ctx, sc, e); err != nil {
			return err
		}
		c.reg.Counter(MetricJournalReplayed).Inc()
	}
	return nil
}

// entryApplied probes whether the shard executed e before it died.
func (c *Coordinator) entryApplied(ctx context.Context, sc *shardConn, e *journalEntry, snapshot platform.Inventory) (bool, error) {
	switch e.kind {
	case entryAudience:
		return snapshot.Audiences >= e.postAudiences, nil
	case entryCampaign:
		return snapshot.Campaigns >= e.postCampaigns, nil
	case entryAd:
		return snapshot.Ads >= e.postAds, nil
	case entryAppeal:
		// Appeals move no census counter; probe the ad's status directly
		// (the ad exists by now — its create precedes the appeal in the
		// journal order).
		ad, err := sc.client.GetAd(ctx, e.appealAdID)
		if err != nil {
			return false, fmt.Errorf("replay probe GetAd(%s) on %s: %w", e.appealAdID, sc.label, err)
		}
		return ad.Status == e.wantStatus, nil
	}
	return false, fmt.Errorf("journal entry %d has unknown kind %q", e.seq, e.kind)
}

// replayEntry executes one journal entry on the shard and asserts the
// outcome matches the fleet's recorded one. A mismatch is divergence: the
// shard rebuilt different state than the fleet agreed on (wrong world seed,
// drifted RNG cursor) and must not rejoin.
func (c *Coordinator) replayEntry(ctx context.Context, sc *shardConn, e *journalEntry) error {
	ctx = marketing.WithIdempotencyKey(ctx, e.key)
	switch e.kind {
	case entryAudience:
		resp, err := sc.client.CreateAudience(ctx, e.audienceName, e.audienceHashes)
		if err != nil {
			return fmt.Errorf("replay %s #%d on %s: %w", e.kind, e.seq, sc.label, err)
		}
		if resp.ID != e.wantID || resp.MatchedSize != e.wantMatched {
			return divergence("journal replay audience", sc,
				fmt.Sprintf("%+v", *resp), fmt.Sprintf("id=%s matched=%d", e.wantID, e.wantMatched))
		}
	case entryCampaign:
		resp, err := sc.client.CreateCampaign(ctx, e.campaignReq)
		if err != nil {
			return fmt.Errorf("replay %s #%d on %s: %w", e.kind, e.seq, sc.label, err)
		}
		if resp.ID != e.wantID {
			return divergence("journal replay campaign", sc, resp.ID, e.wantID)
		}
	case entryAd:
		resp, err := sc.client.CreateAd(ctx, e.adReq)
		if err != nil {
			return fmt.Errorf("replay %s #%d on %s: %w", e.kind, e.seq, sc.label, err)
		}
		if resp.ID != e.wantID || resp.Status != e.wantStatus {
			return divergence("journal replay ad", sc,
				fmt.Sprintf("%+v", *resp), fmt.Sprintf("id=%s status=%s", e.wantID, e.wantStatus))
		}
	case entryAppeal:
		resp, err := sc.client.AppealAd(ctx, e.appealAdID)
		if err != nil {
			return fmt.Errorf("replay %s #%d on %s: %w", e.kind, e.seq, sc.label, err)
		}
		if resp.Status != e.wantStatus {
			return divergence("journal replay appeal", sc, resp.Status, e.wantStatus)
		}
	default:
		return fmt.Errorf("journal entry %d has unknown kind %q", e.seq, e.kind)
	}
	return nil
}

// rejoinLocked is the readmission protocol for one quarantined shard, run
// under the fleet mutex (so no mutation or day moves while state converges):
//
//  1. handshake — the shard answers GET /v1/shard/status, its world
//     fingerprint matches an admitted reference, and no day session is
//     still open on it;
//  2. catch-up — the journal gap replays in order (applied-probe per entry);
//  3. digest gate — the shard's full state digest must equal the
//     reference's, byte for byte;
//  4. admit — back into the CRUD fan-out and delivery pool; its journal
//     entries drain; MTTR is observed.
//
// With no admitted reference left (whole-fleet outage), the first shard back
// is readmitted on replay alone — there is nothing to digest against — and
// counted in router.rejoin_unverified; every later shard digests against it.
func (c *Coordinator) rejoinLocked(ctx context.Context, shard int) error {
	if c.isAdmitted(shard) {
		return nil
	}
	sc := c.shards[shard]
	fail := func(err error) error {
		c.reg.Counter(MetricRejoinFailures).Inc()
		return err
	}
	st, err := sc.client.ShardStatus(ctx)
	if err != nil {
		return fail(fmt.Errorf("coordinator: rejoin handshake on %s: %w", sc.label, err))
	}
	if st.SessionActive {
		return fail(fmt.Errorf("coordinator: rejoin %s: a day session is still open mid-recovery", sc.label))
	}
	ref := c.referenceConn()
	if ref != nil {
		refSt, err := ref.client.ShardStatus(ctx)
		if err != nil {
			return fail(fmt.Errorf("coordinator: rejoin reference handshake on %s: %w", ref.label, err))
		}
		if st.NumUsers != refSt.NumUsers {
			return fail(divergence("rejoin world fingerprint", sc,
				fmt.Sprintf("num_users=%d", st.NumUsers), fmt.Sprintf("num_users=%d", refSt.NumUsers)))
		}
	}
	replayStart := c.clock.Now()
	if err := c.replayJournalLocked(ctx, sc, st.Inventory); err != nil {
		return fail(fmt.Errorf("coordinator: rejoin replay on %s: %w", sc.label, err))
	}
	c.reg.Histogram(MetricJournalReplayLatency).Observe(c.clock.Now().Sub(replayStart))
	if ref != nil {
		after, err := sc.client.ShardStatus(ctx)
		if err != nil {
			return fail(fmt.Errorf("coordinator: rejoin digest read on %s: %w", sc.label, err))
		}
		refAfter, err := ref.client.ShardStatus(ctx)
		if err != nil {
			return fail(fmt.Errorf("coordinator: rejoin digest read on %s: %w", ref.label, err))
		}
		if after.StateDigest != refAfter.StateDigest {
			return fail(divergence("rejoin state digest", sc, after.StateDigest, refAfter.StateDigest))
		}
	} else {
		c.reg.Counter(MetricRejoinUnverified).Inc()
	}
	c.admit(shard)
	c.reg.Counter(MetricRejoins).Inc()
	return nil
}
