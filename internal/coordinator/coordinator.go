// Package coordinator is the multi-process serving tier: a thin router that
// fronts N independent adplatform shard backends and makes them behave as
// one deterministic platform.
//
// Every backend holds the FULL world (the population is a deterministic
// function of the world seed) and the full CRUD account state (mutations fan
// out to all shards), but during a delivery day each backend auctions only
// its own slice of the audience — position mod N over the globally sorted
// eligible-user list, the same round-robin partition the in-process sharded
// engine uses. The coordinator runs the pacing controller and the tick
// barrier (platform.PacingController) over HTTP, so an N-shard coordinated
// day is byte-identical to the single-process RunDayWorkers(workers=N) run,
// and a 1-shard day reproduces the workers=1 goldens.
//
// The coordinator holds no durable state of its own: backends recover
// independently through their own WAL/snapshot stores, and an interrupted
// delivery day is simply re-run — determinism makes the re-run
// indistinguishable from an uninterrupted one.
//
// The fleet degrades rather than dies: a per-shard health model scores
// transport silence (never HTTP answers — an error status still proves the
// process alive), a shard that crosses the down threshold is quarantined out
// of the fan-out, CRUD keeps flowing with its mutations journaled
// (journal.go), and a resurrected shard re-earns admission through the
// digest-gated rejoin protocol. Shard INDEX is pinned for the life of the
// fleet: the delivery partition is position-mod-N in shard order, so a shard
// is resurrected under its own index, never renumbered — renumbering would
// silently re-partition every subsequent day.
package coordinator

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/adaudit/impliedidentity/internal/marketing"
	"github.com/adaudit/impliedidentity/internal/obs"
	"github.com/adaudit/impliedidentity/internal/platform"
	"github.com/adaudit/impliedidentity/internal/privacy"
	"github.com/adaudit/impliedidentity/internal/supervisor"
)

// Config shapes a Coordinator.
type Config struct {
	// Backends are the shard base URLs, in shard order. Shard i of the
	// delivery partition is Backends[i]; the order is part of the day's
	// identity (it fixes the commit order), so give every coordinator of
	// the same fleet the same order.
	Backends []string
	// MaxFanout bounds concurrent backend calls per scatter. 0 means
	// "all shards at once".
	MaxFanout int
	// DayAttempts is how many times a delivery day is re-run from scratch
	// after a shard failure before giving up. 0 defaults to 5.
	DayAttempts int
	// DayBackoff is the wait between day attempts, doubling per attempt.
	// 0 defaults to 2s.
	DayBackoff time.Duration
	// DayBackoffMax caps the doubling (plus deterministic jitter derived
	// from the day sequence, so coordinated fleets don't retry in
	// lockstep). 0 defaults to 8x DayBackoff.
	DayBackoffMax time.Duration
	// JournalCap bounds the mutation catch-up journal; at capacity, new
	// mutations are refused with ErrJournalFull (503 + Retry-After at the
	// router) while a shard is down. 0 defaults to 256.
	JournalCap int
	// Health sets the failure-streak thresholds for the per-shard health
	// model; zero values take supervisor defaults.
	Health supervisor.Thresholds
	// Transport, when set, replaces every backend client's HTTP transport —
	// the chaos/fault injection seam (faults.NewTransport).
	Transport http.RoundTripper
	// Clock injects time for the day-retry backoff and MTTR accounting;
	// nil is the system clock.
	Clock marketing.Clock
	// Privacy is the insights privatization policy, applied to the MERGED
	// report after cross-shard summation (merge-then-privatize: per-shard
	// tallies are partition slices, so per-shard suppression would
	// over-suppress and per-shard noise would stack one draw per shard).
	// Shards behind this coordinator must serve raw insights; a
	// pre-privatized shard response is refused as a divergence.
	Privacy privacy.Config
}

// shardConn is one backend: its resilient API client and its metric label.
type shardConn struct {
	index  int
	url    string
	client *marketing.Client
	label  string
}

// Coordinator fans CRUD out to every shard and runs coordinated delivery
// days. Mutations are serialized (one at a time across the fleet) so every
// backend applies them in the same order and allocates the same object IDs —
// cross-shard ID agreement is asserted on every response. Reads are
// concurrent.
type Coordinator struct {
	cfg    Config
	shards []*shardConn
	reg    *obs.Registry
	clock  marketing.Clock
	health *supervisor.FleetHealth

	// mu serializes mutating fan-outs and delivery days. Determinism needs
	// identical mutation order on every backend; a thin coordinator buys it
	// with a lock rather than a log. Rejoins also run under mu — a shard is
	// readmitted only at a mutation boundary.
	mu     sync.Mutex
	daySeq atomic.Uint64

	// admMu guards the admission set and the journal's structure for
	// readers (topology, snapshots). Writers additionally hold mu; lock
	// order is mu then admMu, never the reverse.
	admMu    sync.Mutex
	admitted []bool
	journal  *mutationJournal

	keyBase string
	keySeq  atomic.Uint64
}

// New builds a coordinator over the configured backends.
func New(cfg Config, reg *obs.Registry) (*Coordinator, error) {
	if len(cfg.Backends) == 0 {
		return nil, fmt.Errorf("coordinator: no backends configured")
	}
	if cfg.DayAttempts <= 0 {
		cfg.DayAttempts = 5
	}
	if cfg.DayBackoff <= 0 {
		cfg.DayBackoff = 2 * time.Second
	}
	if cfg.DayBackoffMax <= 0 {
		cfg.DayBackoffMax = 8 * cfg.DayBackoff
	}
	if cfg.JournalCap <= 0 {
		cfg.JournalCap = 256
	}
	if reg == nil {
		reg = obs.NewRegistry()
	}
	clock := cfg.Clock
	if clock == nil {
		clock = marketing.SystemClock
	}
	c := &Coordinator{
		cfg:     cfg,
		reg:     reg,
		clock:   clock,
		keyBase: fmt.Sprintf("fk-%08x", rand.Uint32()),
	}
	for i, u := range cfg.Backends {
		cl, err := marketing.NewClient(u)
		if err != nil {
			return nil, fmt.Errorf("coordinator: backend %d: %w", i, err)
		}
		if cfg.Transport != nil {
			cl.SetTransport(cfg.Transport)
		}
		cl.SetMetrics(reg)
		c.shards = append(c.shards, &shardConn{index: i, url: u, client: cl, label: fmt.Sprintf("shard%d", i)})
	}
	c.health = supervisor.NewFleetHealth(len(c.shards), cfg.Health, reg, obs.Clock(clock))
	c.admitted = make([]bool, len(c.shards))
	for i := range c.admitted {
		c.admitted[i] = true
	}
	c.journal = newMutationJournal(cfg.JournalCap)
	return c, nil
}

// Shards reports the shard count.
func (c *Coordinator) Shards() int { return len(c.shards) }

// Backends reports the backend URLs in shard order.
func (c *Coordinator) Backends() []string {
	return append([]string(nil), c.cfg.Backends...)
}

// Health exposes the per-shard health model (the supervisor's scorekeeper).
func (c *Coordinator) Health() *supervisor.FleetHealth { return c.health }

// SetRetryPolicy applies one retry policy to every backend client.
func (c *Coordinator) SetRetryPolicy(p marketing.RetryPolicy) {
	for _, sc := range c.shards {
		sc.client.SetRetryPolicy(p)
	}
}

// mintFleetKey makes a fleet-wide idempotency key for a mutation that
// arrived without one, so every shard — including a future journal replay —
// executes the mutation under the same key.
func (c *Coordinator) mintFleetKey() string {
	return fmt.Sprintf("%s-%d", c.keyBase, c.keySeq.Add(1))
}

// --- admission -------------------------------------------------------------

// isAdmitted reports whether a shard is in the serving set.
func (c *Coordinator) isAdmitted(shard int) bool {
	c.admMu.Lock()
	defer c.admMu.Unlock()
	return c.admitted[shard]
}

// admissionSnapshot splits the fleet into admitted conns and quarantined
// indexes.
func (c *Coordinator) admissionSnapshot() (admitted []*shardConn, quarantined []int) {
	c.admMu.Lock()
	defer c.admMu.Unlock()
	for i, sc := range c.shards {
		if c.admitted[i] {
			admitted = append(admitted, sc)
		} else {
			quarantined = append(quarantined, i)
		}
	}
	return admitted, quarantined
}

// quarantinedIdx lists the quarantined shard indexes.
func (c *Coordinator) quarantinedIdx() []int {
	_, q := c.admissionSnapshot()
	return q
}

// referenceConn is the first admitted shard — the replica the journal's
// census bootstrap and the rejoin digest gate compare against. Nil when the
// whole fleet is down.
func (c *Coordinator) referenceConn() *shardConn {
	c.admMu.Lock()
	defer c.admMu.Unlock()
	for i, sc := range c.shards {
		if c.admitted[i] {
			return sc
		}
	}
	return nil
}

// Quarantine removes a shard from the serving set (idempotent; reports
// whether this call did the removal) and marks it down in the health model.
// CRUD keeps flowing without it — its missed mutations accumulate in the
// journal until it rejoins.
func (c *Coordinator) Quarantine(shard int) bool {
	c.admMu.Lock()
	was := c.admitted[shard]
	c.admitted[shard] = false
	c.admMu.Unlock()
	if was {
		c.health.MarkDown(shard)
		c.reg.Counter(MetricQuarantines).Inc()
	}
	return was
}

// admit returns a shard to the serving set, drains its journal entries, and
// closes its MTTR window.
func (c *Coordinator) admit(shard int) {
	c.admMu.Lock()
	c.admitted[shard] = true
	c.journal.dropShard(shard)
	c.reg.Gauge(MetricJournalDepth).Set(int64(c.journal.depth()))
	c.admMu.Unlock()
	c.health.MarkHealthy(shard)
}

// ProbeShard is the supervisor's liveness probe: one unretried GET /healthz
// against the shard.
func (c *Coordinator) ProbeShard(ctx context.Context, shard int) error {
	return c.shards[shard].client.Healthz(ctx)
}

// TryRejoin attempts the full rejoin protocol for a quarantined shard. It
// needs the fleet mutex (rejoin is a mutation-order event) but will not wait
// for it: while a delivery day holds the lock — minutes, with retries — the
// supervisor should keep probing rather than block, so a busy fleet returns
// supervisor.ErrBusy and the day's own retry preamble performs the rejoin
// inline instead.
func (c *Coordinator) TryRejoin(ctx context.Context, shard int) error {
	if c.isAdmitted(shard) {
		return nil
	}
	if !c.mu.TryLock() {
		return supervisor.ErrBusy
	}
	defer c.mu.Unlock()
	return c.rejoinLocked(ctx, shard)
}

// --- scatter ---------------------------------------------------------------

// scatterEach runs fn against the given shards with bounded concurrency and
// waits for all of them, recording per-shard request/error counts and
// latency, and feeding each outcome to the health model. The returned slice
// is indexed by shard index (full fleet width); untargeted shards stay nil.
func (c *Coordinator) scatterEach(ctx context.Context, op string, targets []*shardConn, fn func(ctx context.Context, sc *shardConn) error) []error {
	limit := c.cfg.MaxFanout
	if limit <= 0 || limit > len(targets) {
		limit = len(targets)
	}
	sem := make(chan struct{}, limit)
	errs := make([]error, len(c.shards))
	var wg sync.WaitGroup
	for _, sc := range targets {
		wg.Add(1)
		go func(sc *shardConn) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			start := c.clock.Now()
			err := fn(ctx, sc)
			c.reg.Histogram(MetricShardLatency + "|" + sc.label).Observe(c.clock.Now().Sub(start))
			c.reg.Counter(MetricShardRequests + "|" + sc.label).Inc()
			c.observeOutcome(sc.index, err)
			if err != nil {
				c.reg.Counter(MetricShardErrors + "|" + sc.label).Inc()
				errs[sc.index] = fmt.Errorf("coordinator: %s on %s: %w", op, sc.label, err)
			}
		}(sc)
	}
	wg.Wait()
	return errs
}

// observeOutcome feeds one RPC outcome into the health model. The scoring
// doctrine: ANY HTTP answer — success, a terminal 4xx, an injected 5xx or
// 429 — proves the process alive and resets the failure streak; only
// transport silence (connection refused, timeout, a connection dropped
// mid-body) counts toward down. This is what makes suspect-scoring
// structurally flap-free under transient injected server errors. A caller
// cancellation says nothing about the shard and is not scored.
func (c *Coordinator) observeOutcome(shard int, err error) {
	if err == nil {
		c.health.Observe(shard, true)
		return
	}
	if errors.Is(err, context.Canceled) {
		return
	}
	var apiErr *marketing.APIError
	c.health.Observe(shard, errors.As(err, &apiErr))
}

// scatter runs fn against the given shards and returns the first error in
// shard order (deterministic even when several shards fail at once).
func (c *Coordinator) scatter(ctx context.Context, op string, targets []*shardConn, fn func(ctx context.Context, sc *shardConn) error) error {
	errs := c.scatterEach(ctx, op, targets, fn)
	for _, sc := range targets {
		if errs[sc.index] != nil {
			return errs[sc.index]
		}
	}
	return nil
}

// --- replicated CRUD -------------------------------------------------------

// CreateAudience fans an audience upload out to every admitted shard and
// asserts the shards matched identically; quarantined shards catch up
// through the journal.
func (c *Coordinator) CreateAudience(ctx context.Context, req marketing.CreateAudienceRequest) (*marketing.CreateAudienceResponse, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return runMutation(ctx, c, mutationSpec[marketing.CreateAudienceResponse]{
		op: "create audience",
		call: func(ctx context.Context, sc *shardConn) (*marketing.CreateAudienceResponse, error) {
			return sc.client.CreateAudience(ctx, req.Name, req.PIIHashes)
		},
		same: func(a, b marketing.CreateAudienceResponse) bool {
			return a.ID == b.ID && a.MatchedSize == b.MatchedSize
		},
		render: func(r marketing.CreateAudienceResponse) string { return fmt.Sprintf("%+v", r) },
		record: func(r marketing.CreateAudienceResponse) *journalEntry {
			return &journalEntry{
				kind:           entryAudience,
				audienceName:   req.Name,
				audienceHashes: append([]string(nil), req.PIIHashes...),
				wantID:         r.ID,
				wantMatched:    r.MatchedSize,
			}
		},
	})
}

// CreateCampaign fans a campaign create out to every admitted shard.
func (c *Coordinator) CreateCampaign(ctx context.Context, req marketing.CreateCampaignRequest) (*marketing.CreateCampaignResponse, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return runMutation(ctx, c, mutationSpec[marketing.CreateCampaignResponse]{
		op: "create campaign",
		call: func(ctx context.Context, sc *shardConn) (*marketing.CreateCampaignResponse, error) {
			return sc.client.CreateCampaign(ctx, req)
		},
		same:   func(a, b marketing.CreateCampaignResponse) bool { return a.ID == b.ID },
		render: func(r marketing.CreateCampaignResponse) string { return r.ID },
		record: func(r marketing.CreateCampaignResponse) *journalEntry {
			return &journalEntry{kind: entryCampaign, campaignReq: req, wantID: r.ID}
		},
	})
}

// CreateAd fans an ad create out to every admitted shard. The review RNG is
// seeded identically on every backend, so the review outcome must also
// agree.
func (c *Coordinator) CreateAd(ctx context.Context, req marketing.CreateAdRequest) (*marketing.AdResponse, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return runMutation(ctx, c, mutationSpec[marketing.AdResponse]{
		op: "create ad",
		call: func(ctx context.Context, sc *shardConn) (*marketing.AdResponse, error) {
			return sc.client.CreateAd(ctx, req)
		},
		same: func(a, b marketing.AdResponse) bool {
			return a.ID == b.ID && a.Status == b.Status
		},
		render: func(r marketing.AdResponse) string { return fmt.Sprintf("%+v", r) },
		record: func(r marketing.AdResponse) *journalEntry {
			return &journalEntry{kind: entryAd, adReq: req, wantID: r.ID, wantStatus: r.Status}
		},
	})
}

// AppealAd fans an appeal out to every admitted shard.
func (c *Coordinator) AppealAd(ctx context.Context, adID string) (*marketing.AdResponse, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return runMutation(ctx, c, mutationSpec[marketing.AdResponse]{
		op: "appeal ad",
		call: func(ctx context.Context, sc *shardConn) (*marketing.AdResponse, error) {
			return sc.client.AppealAd(ctx, adID)
		},
		same:   func(a, b marketing.AdResponse) bool { return a.Status == b.Status },
		render: func(r marketing.AdResponse) string { return r.Status },
		record: func(r marketing.AdResponse) *journalEntry {
			return &journalEntry{kind: entryAppeal, appealAdID: adID, wantStatus: r.Status}
		},
	})
}

// GetAd reads an ad's status from the first admitted shard that answers, in
// shard order (reads need no quorum: shards are replicas of the CRUD state).
func (c *Coordinator) GetAd(ctx context.Context, adID string) (*marketing.AdResponse, error) {
	var lastErr error
	asked := 0
	for _, sc := range c.shards {
		if !c.isAdmitted(sc.index) {
			continue
		}
		asked++
		resp, err := sc.client.GetAd(ctx, adID)
		if err == nil {
			return resp, nil
		}
		lastErr = err
		if !marketing.Retryable(err) {
			break // a terminal answer (404, validation) is the answer
		}
	}
	if asked == 0 {
		return nil, fmt.Errorf("coordinator: get ad %s: no admitted shards: %w", adID, ErrShardDown)
	}
	return nil, lastErr
}

// Insights fans the insights read out to every shard and merges: counts sum
// (shards own disjoint users, so impressions, reach, clicks, and every
// breakdown cell add), while SpendCents — written identically to all shards
// at day finish — must agree to the bit and passes through.
//
// Unlike the replicated CRUD state, delivery counts are PARTITIONED: each
// shard's slice exists nowhere else, so insights cannot be served while any
// shard is quarantined — the merge would silently under-count. Callers get
// a typed retryable error until the fleet heals.
func (c *Coordinator) Insights(ctx context.Context, adID string, dims []string) (*marketing.InsightsResponse, error) {
	if q := c.quarantinedIdx(); len(q) > 0 {
		return nil, fmt.Errorf("coordinator: insights for %s need the full fleet, shards %v quarantined: %w", adID, q, ErrShardDown)
	}
	out := make([]*marketing.InsightsResponse, len(c.shards))
	err := c.scatter(ctx, "insights", c.shards, func(ctx context.Context, sc *shardConn) error {
		var resp *marketing.InsightsResponse
		var err error
		if len(dims) == 0 {
			resp, err = sc.client.Insights(ctx, adID)
		} else {
			resp, err = sc.client.InsightsBreakdown(ctx, adID, dims...)
		}
		if err != nil {
			return err
		}
		out[sc.index] = resp
		return nil
	})
	if err != nil {
		return nil, err
	}
	merged, err := mergeInsights(c.shards, out)
	if err != nil {
		return nil, err
	}
	// Merge-then-privatize: suppression thresholds and noise apply to the
	// fleet-wide report, never to partition slices. This is the only point
	// in the fleet where the logical report exists, so it is the only point
	// where privatizing it matches the single-process engine byte for byte.
	return marketing.PrivatizeInsights(c.cfg.Privacy, merged), nil
}

// mergeInsights folds per-shard delivery reports into the fleet-wide one.
// Shard responses must be raw: a pre-privatized part means a misconfigured
// shard (suppression on a partition slice, noise stacked per shard) and is
// reported as a divergence rather than silently merged.
func mergeInsights(shards []*shardConn, parts []*marketing.InsightsResponse) (*marketing.InsightsResponse, error) {
	m := &marketing.InsightsResponse{AdID: parts[0].AdID, SpendCents: parts[0].SpendCents}
	cells := map[marketing.BreakdownRow]int{}
	for i, part := range parts {
		if part.Privacy != nil {
			return nil, divergence("insights privatized by shard", shards[i],
				part.Privacy.Level, "raw")
		}
		if part.SpendCents != m.SpendCents {
			return nil, divergence("insights spend", shards[i],
				fmt.Sprintf("%v", part.SpendCents), fmt.Sprintf("%v", m.SpendCents))
		}
		m.Impressions += part.Impressions
		m.Reach += part.Reach
		m.Clicks += part.Clicks
		for _, row := range part.Breakdown {
			key := row
			key.Impressions = 0
			cells[key] += row.Impressions
		}
		if len(part.Hourly) > 0 {
			if m.Hourly == nil {
				m.Hourly = make([]int, len(part.Hourly))
			}
			if len(part.Hourly) != len(m.Hourly) {
				return nil, divergence("insights hourly length", shards[i],
					fmt.Sprintf("%d", len(part.Hourly)), fmt.Sprintf("%d", len(m.Hourly)))
			}
			for t, v := range part.Hourly {
				m.Hourly[t] += v
			}
		}
	}
	m.Breakdown = marketing.BreakdownRows(cells)
	return m, nil
}

// Inventory fans the object census out to every admitted shard and asserts
// they agree — the cheap convergence check the multi-process smoke test
// leans on. (CRUD state is replicated, so any admitted subset answers for
// the fleet; quarantined shards are behind by exactly the journal.)
func (c *Coordinator) Inventory(ctx context.Context) (*platform.Inventory, error) {
	admitted, _ := c.admissionSnapshot()
	if len(admitted) == 0 {
		return nil, fmt.Errorf("coordinator: inventory: no admitted shards: %w", ErrShardDown)
	}
	out := make([]*platform.Inventory, len(c.shards))
	err := c.scatter(ctx, "inventory", admitted, func(ctx context.Context, sc *shardConn) error {
		inv, err := sc.client.Inventory(ctx)
		if err != nil {
			return err
		}
		out[sc.index] = inv
		return nil
	})
	if err != nil {
		return nil, err
	}
	var ref *platform.Inventory
	for _, sc := range admitted {
		inv := out[sc.index]
		if ref == nil {
			ref = inv
			continue
		}
		if inv.Audiences != ref.Audiences || inv.Campaigns != ref.Campaigns ||
			inv.Ads != ref.Ads || strings.Join(inv.CampaignNames, ",") != strings.Join(ref.CampaignNames, ",") {
			return nil, divergence("inventory", sc, fmt.Sprintf("%+v", *inv), fmt.Sprintf("%+v", *ref))
		}
	}
	return ref, nil
}

// divergence builds the error for shards that disagree on what must be
// replicated state. It is not retryable by design: divergence means a
// backend executed a mutation the others did not (or runs different code /
// a different world seed) and needs operator attention, not a retry.
func divergence(what string, sc *shardConn, got, want string) error {
	return fmt.Errorf("coordinator: %s diverged on %s (%s): got %s, want %s (reference)", what, sc.label, sc.url, got, want)
}
