// Package loadgen generates concurrent advertiser traffic against the
// marketing API. Real audit studies hammer the platform from many parallel
// campaigns (the paper ran 688 ads across parallel campaigns; Ali et al.'s
// "Discrimination through optimization" drove the Marketing API at scale
// under the same pacing constraints), so the load generator replays that
// shape as virtual-advertiser scenarios: upload a Custom Audience, create a
// campaign, create N ads, deliver, poll insights.
//
// Two driving disciplines are supported:
//
//   - closed loop: a fixed-size worker pool, each worker running scenarios
//     back to back — concurrency is constant, arrival rate adapts to
//     service time;
//   - open loop: scenarios arrive on a seeded Poisson process at a target
//     rate regardless of completions — the discipline that surfaces queueing
//     collapse, since slow responses do not slow the offered load.
//
// Everything the generator decides (audience membership, ad creatives,
// budgets, delivery seeds, arrival gaps) derives from Config.Seed, so a run
// is reproducible: the same seed issues the identical request sequence, and
// only measured latencies vary between runs.
package loadgen

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"github.com/adaudit/impliedidentity/internal/demo"
	"github.com/adaudit/impliedidentity/internal/image"
	"github.com/adaudit/impliedidentity/internal/marketing"
	"github.com/adaudit/impliedidentity/internal/obs"
	"github.com/adaudit/impliedidentity/internal/privacy"
)

// Mode selects the driving discipline.
type Mode string

// Driving disciplines.
const (
	ModeClosed Mode = "closed"
	ModeOpen   Mode = "open"
)

// Operation names, used as metric keys and JSON report keys.
const (
	OpCreateAudience = "create_audience"
	OpCreateCampaign = "create_campaign"
	OpCreateAd       = "create_ad"
	OpDeliver        = "deliver"
	OpInsights       = "insights"
)

// Ops lists every operation in scenario order.
var Ops = []string{OpCreateAudience, OpCreateCampaign, OpCreateAd, OpDeliver, OpInsights}

// Config parameterizes a load run.
type Config struct {
	// Seed drives every workload decision. Same seed → same request
	// sequence.
	Seed int64
	// Mode is the driving discipline (default closed loop).
	Mode Mode
	// Workers is the closed-loop concurrency (default 4). In open-loop
	// mode it is ignored: each arrival gets its own goroutine.
	Workers int
	// ArrivalRPS is the open-loop scenario arrival rate per second
	// (default 4).
	ArrivalRPS float64
	// Scenarios is how many virtual advertisers to run (default 8).
	Scenarios int
	// AdsPerCampaign is the number of ads each advertiser creates
	// (default 2).
	AdsPerCampaign int
	// AudienceSize is the number of PII hashes per audience upload
	// (default 200).
	AudienceSize int
	// InsightsPolls is how many insights reads follow each delivered ad
	// (default 2), alternating the full breakdown with a gender-only one —
	// the polling pattern of the audit's data collection.
	InsightsPolls int
	// Hashes is the PII hash pool audiences are drawn from. Required: the
	// platform rejects targeting that matches no users.
	Hashes []string
	// DeliveryWorkers is passed through on every deliver call: the
	// platform-side shard count for the delivery engine. 0 defers to the
	// server's configured default; 1 runs a single shard.
	DeliveryWorkers int
	// ShardCount records the process topology behind the target (from the
	// router's GET /v1/topology) in the report. Informational only: 0 means
	// the target is a single adplatform process.
	ShardCount int
	// Privacy records the target's insights privatization policy in the
	// report, so serving benches can attribute an insights-path latency or
	// suppression delta to the privacy level. Informational: the policy
	// lives on the server (or router); the runner additionally counts the
	// privatized responses and suppressed cells it actually observes.
	Privacy privacy.Config
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.Mode == "" {
		c.Mode = ModeClosed
	}
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.ArrivalRPS <= 0 {
		c.ArrivalRPS = 4
	}
	if c.Scenarios <= 0 {
		c.Scenarios = 8
	}
	if c.AdsPerCampaign <= 0 {
		c.AdsPerCampaign = 2
	}
	if c.AudienceSize <= 0 {
		c.AudienceSize = 200
	}
	if c.InsightsPolls <= 0 {
		c.InsightsPolls = 2
	}
	return c
}

// Runner executes load scenarios against one marketing API client.
type Runner struct {
	cfg    Config
	client *marketing.Client
	reg    *obs.Registry
	clock  marketing.Clock

	completed atomic.Int64
	failed    atomic.Int64

	// Observed privatization on the insights path: responses carrying a
	// privacy block, and the total cells those responses withheld.
	privatized      atomic.Int64
	suppressedCells atomic.Int64
}

// New validates the configuration and builds a runner.
func New(cfg Config, client *marketing.Client) (*Runner, error) {
	if client == nil {
		return nil, fmt.Errorf("loadgen: nil client")
	}
	cfg = cfg.withDefaults()
	if cfg.Mode != ModeClosed && cfg.Mode != ModeOpen {
		return nil, fmt.Errorf("loadgen: unknown mode %q", cfg.Mode)
	}
	if len(cfg.Hashes) == 0 {
		return nil, fmt.Errorf("loadgen: empty PII hash pool")
	}
	r := &Runner{cfg: cfg, client: client, reg: obs.NewRegistry(), clock: marketing.SystemClock}
	client.SetMetrics(r.reg)
	return r, nil
}

// SetClock replaces the wall clock used for latency measurement, letting
// tests and deterministic replays drive the runner against a fake clock.
func (r *Runner) SetClock(c marketing.Clock) {
	if c != nil {
		r.clock = c
	}
}

// Metrics exposes the client-side registry (per-operation latency
// histograms and error counters).
func (r *Runner) Metrics() *obs.Registry { return r.reg }

// observe times one API operation into the per-op histogram and counters.
func (r *Runner) observe(op string, f func() error) error {
	start := r.clock.Now()
	err := f()
	r.reg.Histogram("op.latency|" + op).Observe(r.clock.Now().Sub(start))
	r.reg.Counter("op.requests|" + op).Inc()
	if err != nil {
		r.reg.Counter("op.errors|" + op).Inc()
	}
	return err
}

// profileFor draws a creative demographic deterministically from the
// scenario RNG, covering the audit's image space.
func profileFor(rng *rand.Rand) demo.Profile {
	genders := []demo.Gender{demo.GenderFemale, demo.GenderMale}
	races := []demo.Race{demo.RaceBlack, demo.RaceWhite}
	ages := demo.AllImpliedAges()
	return demo.Profile{
		Gender: genders[rng.Intn(len(genders))],
		Race:   races[rng.Intn(len(races))],
		Age:    ages[rng.Intn(len(ages))],
	}
}

// scenario runs one virtual advertiser end to end. Every decision comes
// from the scenario's own RNG (seeded from Config.Seed and the scenario
// index), so the workload is independent of worker interleaving.
func (r *Runner) scenario(ctx context.Context, idx int) error {
	rng := rand.New(rand.NewSource(r.cfg.Seed + int64(idx)*7919))
	hashes := make([]string, 0, r.cfg.AudienceSize)
	start := rng.Intn(len(r.cfg.Hashes))
	for i := 0; i < r.cfg.AudienceSize; i++ {
		hashes = append(hashes, r.cfg.Hashes[(start+i)%len(r.cfg.Hashes)])
	}

	var caResp *marketing.CreateAudienceResponse
	if err := r.observe(OpCreateAudience, func() (err error) {
		caResp, err = r.client.CreateAudience(ctx, fmt.Sprintf("loadgen-aud-%d", idx), hashes)
		return err
	}); err != nil {
		return err
	}
	if ctx.Err() != nil {
		return ctx.Err()
	}

	var cmpResp *marketing.CreateCampaignResponse
	if err := r.observe(OpCreateCampaign, func() (err error) {
		cmpResp, err = r.client.CreateCampaign(ctx, marketing.CreateCampaignRequest{
			Name:      fmt.Sprintf("loadgen-cmp-%d", idx),
			Objective: "TRAFFIC",
		})
		return err
	}); err != nil {
		return err
	}

	adIDs := make([]string, 0, r.cfg.AdsPerCampaign)
	for a := 0; a < r.cfg.AdsPerCampaign; a++ {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		img := image.FromProfile(profileFor(rng))
		budget := 100 + rng.Intn(200)
		var adResp *marketing.AdResponse
		if err := r.observe(OpCreateAd, func() (err error) {
			adResp, err = r.client.CreateAd(ctx, marketing.CreateAdRequest{
				CampaignID: cmpResp.ID,
				Creative: marketing.WireCreative{
					Image:    marketing.WireImageFrom(img),
					Headline: "loadgen",
					LinkURL:  "https://example.test/offer",
				},
				Targeting:        marketing.WireTargeting{CustomAudienceIDs: []string{caResp.ID}},
				DailyBudgetCents: budget,
			})
			return err
		}); err != nil {
			return err
		}
		if adResp.Status == "ACTIVE" {
			adIDs = append(adIDs, adResp.ID)
		}
	}
	if len(adIDs) == 0 {
		// All ads rejected by review: a complete (if unlucky) advertiser
		// session, not a harness failure.
		return nil
	}
	if ctx.Err() != nil {
		return ctx.Err()
	}

	deliverSeed := rng.Int63()
	if err := r.observe(OpDeliver, func() error {
		return r.client.DeliverWorkers(ctx, adIDs, deliverSeed, r.cfg.DeliveryWorkers)
	}); err != nil {
		return err
	}

	for p := 0; p < r.cfg.InsightsPolls; p++ {
		for _, id := range adIDs {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			if err := r.observe(OpInsights, func() error {
				var resp *marketing.InsightsResponse
				var err error
				if p%2 == 1 {
					resp, err = r.client.InsightsBreakdown(ctx, id, "gender")
				} else {
					resp, err = r.client.Insights(ctx, id)
				}
				if err == nil && resp.Privacy != nil {
					r.privatized.Add(1)
					r.suppressedCells.Add(int64(resp.Privacy.SuppressedCells))
				}
				return err
			}); err != nil {
				return err
			}
		}
	}
	return nil
}

// runOne executes scenario idx and tallies its outcome.
func (r *Runner) runOne(ctx context.Context, idx int) {
	if err := r.scenario(ctx, idx); err != nil {
		r.failed.Add(1)
		return
	}
	r.completed.Add(1)
}

// Run executes the configured scenarios and returns the report. Cancelling
// the context stops new work; in-flight API calls finish (the marketing API
// has no streaming endpoints, so calls are short).
func (r *Runner) Run(ctx context.Context) (*Report, error) {
	start := r.clock.Now()
	switch r.cfg.Mode {
	case ModeClosed:
		r.runClosed(ctx)
	case ModeOpen:
		r.runOpen(ctx)
	}
	return r.report(r.clock.Now().Sub(start)), ctx.Err()
}

// runClosed drives a fixed worker pool over the scenario queue.
func (r *Runner) runClosed(ctx context.Context) {
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < r.cfg.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for idx := range jobs {
				r.runOne(ctx, idx)
			}
		}()
	}
	for i := 0; i < r.cfg.Scenarios; i++ {
		if ctx.Err() != nil {
			break
		}
		jobs <- i
	}
	close(jobs)
	wg.Wait()
}

// runOpen launches scenarios on a seeded Poisson arrival process at
// ArrivalRPS, independent of completions.
func (r *Runner) runOpen(ctx context.Context) {
	arrivals := rand.New(rand.NewSource(r.cfg.Seed ^ 0x5ca1ab1e))
	var wg sync.WaitGroup
	for i := 0; i < r.cfg.Scenarios; i++ {
		if i > 0 {
			// Exponential inter-arrival gap for a Poisson process.
			gap := time.Duration(arrivals.ExpFloat64() / r.cfg.ArrivalRPS * float64(time.Second))
			select {
			case <-time.After(gap):
			case <-ctx.Done():
			}
		}
		if ctx.Err() != nil {
			break
		}
		wg.Add(1)
		go func(idx int) {
			defer wg.Done()
			r.runOne(ctx, idx)
		}(i)
	}
	wg.Wait()
}

// report assembles the machine-readable run summary.
func (r *Runner) report(wall time.Duration) *Report {
	snap := r.reg.Snapshot()
	rep := &Report{
		Schema:             ReportSchema,
		Name:               "serving",
		Seed:               r.cfg.Seed,
		Mode:               string(r.cfg.Mode),
		Scenarios:          r.cfg.Scenarios,
		ScenariosCompleted: int(r.completed.Load()),
		ScenariosFailed:    int(r.failed.Load()),
		AdsPerCampaign:     r.cfg.AdsPerCampaign,
		AudienceSize:       r.cfg.AudienceSize,
		DeliveryWorkers:    r.cfg.DeliveryWorkers,
		Shards:             r.cfg.ShardCount,
		WallSeconds:        math.Round(wall.Seconds()*1000) / 1000,
		Operations:         map[string]OpReport{},
	}
	if r.cfg.Mode == ModeClosed {
		rep.Workers = r.cfg.Workers
	} else {
		rep.ArrivalRPS = r.cfg.ArrivalRPS
	}
	// A privacy block appears when the run was configured for a privatizing
	// target OR when privatized responses were actually observed — the
	// latter catches a target armed out-of-band.
	if r.cfg.Privacy.Enabled() || r.privatized.Load() > 0 {
		rep.Privacy = &PrivacyReport{
			Level:                r.cfg.Privacy.Level.String(),
			K:                    r.cfg.Privacy.K,
			Epsilon:              r.cfg.Privacy.Epsilon,
			PrivatizedResponses:  r.privatized.Load(),
			SuppressedCellsTotal: r.suppressedCells.Load(),
		}
	}
	// The client shares this registry (New wires it), so its resilience
	// counters land in the same snapshot as the per-op histograms.
	rep.Retries = snap.Counters[marketing.MetricClientRetries]
	rep.BreakerRejects = snap.Counters[marketing.MetricClientBreakerRejects]
	for _, op := range Ops {
		requests := snap.Counters["op.requests|"+op]
		if requests == 0 {
			continue
		}
		rep.Operations[op] = OpReport{
			Requests: requests,
			Errors:   snap.Counters["op.errors|"+op],
			Latency:  snap.Histograms["op.latency|"+op],
		}
		rep.Requests += requests
		rep.Errors += snap.Counters["op.errors|"+op]
	}
	if rep.WallSeconds > 0 {
		rep.ThroughputRPS = math.Round(float64(rep.Requests)/rep.WallSeconds*100) / 100
	}
	return rep
}
