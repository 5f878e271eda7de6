package platform

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/adaudit/impliedidentity/internal/demo"
	"github.com/adaudit/impliedidentity/internal/population"
)

// BreakdownKey is one cell of the insights breakdown: age bucket × gender ×
// delivery region. Region is the state the user was in when the impression
// was served — the quantity the race-measurement methodology reads (§3.3).
type BreakdownKey struct {
	Age    demo.AgeBucket
	Gender demo.Gender
	Region demo.State
}

// AdStats is the delivery report for one ad, mirroring the Insights API's
// advertiser-visible surface: counts only, never user identities (§2.1,
// Reporting).
type AdStats struct {
	AdID        string
	Impressions int
	Reach       int
	Clicks      int
	SpendCents  float64
	Breakdown   map[BreakdownKey]int // impressions per cell
	// HourlySeries is impressions per pacing tick, the shape of spend over
	// the simulated day (real insights expose hourly delivery the same
	// way). Its sum equals Impressions.
	HourlySeries []int

	// RaceOracle counts impressions by the recipient's true self-reported
	// race. It is a simulator-only instrument for validating the §3.3
	// inference methodology (experiment E11) and is never exposed through
	// the marketing API — a real advertiser cannot observe it.
	RaceOracle map[demo.Race]int
}

// clone deep-copies the stats, maps and series included, so callers can
// never reach the engine's live accounting through a returned report.
func (s *AdStats) clone() *AdStats {
	cp := *s
	cp.Breakdown = make(map[BreakdownKey]int, len(s.Breakdown))
	for k, v := range s.Breakdown {
		cp.Breakdown[k] = v
	}
	cp.RaceOracle = make(map[demo.Race]int, len(s.RaceOracle))
	for k, v := range s.RaceOracle {
		cp.RaceOracle[k] = v
	}
	cp.HourlySeries = append([]int(nil), s.HourlySeries...)
	return &cp
}

// Insights returns the delivery report for an ad. It fails for ads that
// have not delivered yet. The returned stats are a deep copy: mutating the
// report (its maps and series included) cannot corrupt the frozen record a
// later Insights call reads.
func (p *Platform) Insights(adID string) (*AdStats, error) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	s, ok := p.stats[adID]
	if !ok {
		return nil, fmt.Errorf("platform: no delivery data for ad %q", adID)
	}
	return s.clone(), nil
}

// maxDeliveryWorkers bounds the shard count so a wire-supplied worker count
// cannot make the engine allocate absurd numbers of shards.
const maxDeliveryWorkers = 64

// RunDay delivers all the given ads over one simulated 24-hour window using
// the configured default worker count (Config.DeliveryWorkers). Per the
// audit protocol (§3.2), ads launched together experience the same running
// environment: one shared auction per ad slot. Ads must be Active; rejected
// ads are skipped with their status preserved (the Appendix A analysis
// depends on knowing which were rejected). After the run every delivered ad
// is StatusCompleted and its insights are frozen.
func (p *Platform) RunDay(adIDs []string, seed int64) error {
	return p.RunDayWorkers(adIDs, seed, 0)
}

// RunDayWorkers is RunDay with an explicit worker count. workers <= 0 falls
// back to Config.DeliveryWorkers. The day runs on the delivery engine (see
// delivery_shard.go) with the audience split into that many shards;
// workers=1 is the 1-shard day, which reproduces the historical sequential
// output exactly. Output is a pure function of (ads, seed, effective worker
// count): repeated runs with the same inputs are bit-identical. Different
// worker counts produce statistically equivalent but not identical days,
// because each shard consumes its own RNG stream.
func (p *Platform) RunDayWorkers(adIDs []string, seed int64, workers int) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.session != nil {
		return fmt.Errorf("platform: coordinated delivery session %q active, cannot run an in-process day", p.session.name)
	}
	if workers <= 0 {
		workers = p.cfg.DeliveryWorkers
	}
	if workers < 1 {
		workers = 1
	}
	if workers > maxDeliveryWorkers {
		workers = maxDeliveryWorkers
	}
	active, elig, plan, err := p.prepareDay(adIDs)
	if err != nil {
		return err
	}
	for _, ad := range active {
		p.stats[ad.ID] = p.newAdStats(ad.ID)
	}

	start := p.deliveryClockNow()
	auctions, merge, spendCents, err := p.runDay(active, elig, plan, seed, workers)
	if err != nil {
		return err
	}

	var impressions int64
	for i, ad := range active {
		ad.Status = StatusCompleted
		st := p.stats[ad.ID]
		st.SpendCents = spendCents[i]
		impressions += int64(st.Impressions)
	}
	// One mutation commits the whole day: the completed ads and their frozen
	// insights, so a recovered platform reports the day identically.
	del := &DeliveryState{Seed: seed, Workers: workers}
	for _, ad := range active {
		del.Completed = append(del.Completed, ad.ID)
		del.Stats = append(del.Stats, *adStatsState(p.stats[ad.ID]))
	}
	sortDeliveryState(del)
	p.emit(Mutation{Kind: MutDayDelivered, Delivery: del})
	p.observeDelivery(start, int64(p.cfg.Ticks), auctions, impressions, workers, merge)
	return nil
}

// prepareDay resolves a delivery request into the run's active ad set, its
// CSR eligibility index, and the day plan: tick count, pacing mode, and
// per-ad budgets and starting bids in run order. It is shared by
// RunDayWorkers and the coordinated day session (delivery_session.go) and
// consumes no randomness, so every shard of a coordinated day derives the
// identical plan from the same CRUD state. The caller holds p.mu for
// writing.
func (p *Platform) prepareDay(adIDs []string) (active []*Ad, elig *eligIndex, plan *DayInit, err error) {
	for _, id := range adIDs {
		ad, err := p.adLocked(id)
		if err != nil {
			return nil, nil, nil, err
		}
		switch ad.Status {
		case StatusActive:
			active = append(active, ad)
		case StatusRejected:
			// Skipped, not an error.
		default:
			return nil, nil, nil, fmt.Errorf("platform: ad %s is %v, cannot deliver", id, ad.Status)
		}
	}
	if len(active) == 0 {
		return nil, nil, nil, fmt.Errorf("platform: no active ads to deliver")
	}

	plan = &DayInit{
		Ticks:  p.cfg.Ticks,
		Greedy: p.cfg.GreedyPacing,
		Ads:    make([]DayAdPlan, len(active)),
	}
	for i, ad := range active {
		// Start the effective bid so that bid × (typical optimization term)
		// lands near the competing demand level; the pacing controller
		// refines from there. Without this, reach-optimized ads (term = 1)
		// would burn their budget at eAR-scaled bids ~25× too high.
		meanTerm := p.meanOptimizationTerm(ad)
		plan.Ads[i] = DayAdPlan{
			AdID:             ad.ID,
			DailyBudgetCents: ad.DailyBudgetCents,
			Pacing:           math.Min(math.Max(2*p.cfg.CompetitionBase/meanTerm, 0.005), 50),
		}
	}
	return active, buildEligIndex(active), plan, nil
}

// newAdStats allocates an empty delivery report sized for the configured
// tick count; the caller holds p.mu.
func (p *Platform) newAdStats(adID string) *AdStats {
	return &AdStats{
		AdID:         adID,
		Breakdown:    map[BreakdownKey]int{},
		RaceOracle:   map[demo.Race]int{},
		HourlySeries: make([]int, p.cfg.Ticks),
	}
}

// optimizationTerm computes the per-user multiplier the delivery objective
// applies to the paced bid (§2.1). Awareness maximizes reach, so it ignores
// the estimated action rate entirely; Traffic bids proportionally to eAR;
// Conversions — the highest-intent objective — applies a sharper exponent,
// concentrating delivery even harder on the users the model scores highest.
// The paper ran everything under Traffic; experiment E13 varies this.
func (p *Platform) optimizationTerm(ad *Ad, u population.UserView) float64 {
	if !p.cfg.UseEAR || ad.Objective == ObjectiveAwareness {
		return 1
	}
	ear := ad.folded.rate(u)
	if ad.Objective == ObjectiveConversions {
		// ear^1.6, rescaled so a typical base rate keeps comparable
		// magnitude and pacing dynamics.
		return math.Pow(ear, 1.6) * 4
	}
	return ear
}

// meanOptimizationTerm estimates an ad's typical optimization term over a
// sample of its audience, for bid initialization.
func (p *Platform) meanOptimizationTerm(ad *Ad) float64 {
	n := len(ad.audience)
	if n == 0 {
		return 1
	}
	step := n/200 + 1
	var sum float64
	var count int
	for i := 0; i < n; i += step {
		sum += p.optimizationTerm(ad, p.pop.View(ad.audience[i]))
		count++
	}
	if count == 0 || sum <= 0 {
		return 1
	}
	return sum / float64(count)
}

// backgroundBid draws the highest competing total value for a slot.
// Competition is stiffer for younger users, making them more expensive for
// a budget-paced ad to win.
func (p *Platform) backgroundBid(rng *rand.Rand, u population.UserView) float64 {
	ageFactor := 1.0
	if age := u.Age(); age < 65 {
		ageFactor += p.cfg.CompetitionAgeSlope * float64(65-age) / 47
	}
	raceFactor := 1.0
	if u.Race() == demo.RaceWhite {
		raceFactor += p.cfg.CompetitionWhitePremium
	}
	noise := math.Exp(0.45*rng.NormFloat64() - 0.10125)
	return p.cfg.CompetitionBase * ageFactor * raceFactor * noise
}

// deliveryRegion returns the state an impression is recorded in: the user's
// home state, or — while traveling — usually some other state, occasionally
// the other study state (the miscount risk §3.3 argues is negligible and
// symmetric).
func (p *Platform) deliveryRegion(rng *rand.Rand, u population.UserView) demo.State {
	if rng.Float64() >= u.TravelProb() {
		return u.State()
	}
	if rng.Float64() < 0.1 {
		if u.State() == demo.StateFL {
			return demo.StateNC
		}
		return demo.StateFL
	}
	return demo.StateOther
}

// poisson draws a Poisson variate by Knuth's method; efficient for the
// small per-tick session rates used here.
func poisson(rng *rand.Rand, lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	l := math.Exp(-lambda)
	k := 0
	p := 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
		if k > 1000 {
			return k
		}
	}
}
