package platform

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"

	"github.com/adaudit/impliedidentity/internal/face"
	"github.com/adaudit/impliedidentity/internal/obs"
	"github.com/adaudit/impliedidentity/internal/population"
)

// Config configures the platform.
type Config struct {
	Seed int64
	// Ticks divides the simulated 24-hour run into pacing intervals.
	// Default 48 (30-minute ticks).
	Ticks int
	// Training configures engagement-log generation and eAR fitting.
	Training TrainingConfig
	// Quality is the ad-quality term added to every bid (§2.1). The audit's
	// ads are identical in quality, so this is a constant.
	Quality float64
	// CompetitionBase sets the background advertiser demand level (the
	// highest competing total value for a slot, in dollars). Default 0.012.
	CompetitionBase float64
	// CompetitionAgeSlope makes younger users more expensive: competing
	// demand is multiplied by 1+slope×(65-age)/47 for ages below 65.
	// Default 1.2. This mundane market asymmetry produces the overall
	// delivery skew toward older users the paper observes (§5.3).
	CompetitionAgeSlope float64
	// CompetitionWhitePremium raises competing demand for white users
	// (default 0.3): other advertisers' targeting prices demographics
	// differently (§5.2 footnote 5: groups "may not be equally priced based
	// on the targeting of other advertisers"). This is what makes balanced
	// audiences deliver majority-Black at equal budgets, as the paper's
	// intercepts show (Table 4a: 57% Black for a white-adult-male image).
	CompetitionWhitePremium float64
	// ValueNoise is the per-slot lognormal σ applied to each ad's
	// bid×eAR term, modelling per-request context features and ranking
	// exploration. Without it the deterministic eAR ordering sorts users
	// across ads winner-take-all, wildly overstating delivery skews.
	// Default 0.9.
	ValueNoise float64
	// ReviewRejectProb is the ad-review rejection probability. Near zero in
	// normal operation; Appendix A's experiment raises it via
	// SetReviewRejectProb to reproduce the mass rejections the authors hit.
	ReviewRejectProb float64
	// UseEAR toggles the estimated-action-rate term in the auction. The A1
	// ablation sets it false: with constant eAR the auction is blind to
	// content and all content-based skew should vanish.
	UseEAR bool
	// GreedyPacing disables the budget-pacing controller (A5 ablation):
	// ads bid a fixed high amount until the budget is exhausted.
	GreedyPacing bool
	// FrequencyCap limits how many times one ad is shown to one user per
	// day. Default 4; 0 disables the cap.
	FrequencyCap int
	// VisionSeed seeds the platform's own content classifier training,
	// independent of any classifier the auditor uses.
	VisionSeed int64
	// DeliveryWorkers is the default worker count for RunDay: the number of
	// deterministic user shards delivery is partitioned across. 0 or 1 runs
	// a 1-shard day, which reproduces the historical sequential output.
	// Output is bit-identical across runs for a fixed worker count;
	// different counts give statistically equivalent but distinct days
	// (each shard has its own seeded RNG stream). See DESIGN.md.
	DeliveryWorkers int
}

// DefaultConfig returns the standard simulation configuration.
func DefaultConfig(seed int64) Config {
	return Config{
		Seed:                    seed,
		Ticks:                   48,
		Training:                TrainingConfig{LogRows: 60000, Seed: seed + 1},
		Quality:                 0.004,
		FrequencyCap:            4,
		CompetitionBase:         0.007,
		CompetitionAgeSlope:     2.2,
		CompetitionWhitePremium: 0.3,
		ValueNoise:              0.7,
		ReviewRejectProb:        0.01,
		UseEAR:                  true,
		VisionSeed:              seed + 2,
	}
}

// Platform is the simulated advertising platform. It is safe for concurrent
// use: exported methods take the account lock (writes exclusively, reads
// shared), mirroring a real platform's per-account serialization of mutating
// Marketing-API calls. Objects returned by read methods are either immutable
// after creation (campaigns, audiences) or snapshot copies (ads), so callers
// may use them without holding any lock.
type Platform struct {
	// mu guards every field below it as well as the mutable parts of the
	// objects the maps point to (ad delivery state, the retraining buffer,
	// the review RNG, and cfg.ReviewRejectProb).
	mu sync.RWMutex

	cfg    Config
	pop    *population.Population
	behave *population.Behavior
	vision visionModel
	ear    *earModel

	audiences map[string]*CustomAudience
	campaigns map[string]*Campaign
	ads       map[string]*Ad
	stats     map[string]*AdStats

	served    []servedRow // retraining buffer of served impressions
	reviewRNG *rand.Rand
	nextID    int

	// session is the active coordinated delivery session, if any (see
	// delivery_session.go). In-memory only: a restart loses it, by design.
	session *daySession

	// hook receives every committed mutation (see state.go); invoked while
	// p.mu is held for writing, so emission order is application order.
	hook MutationHook

	// obsReg/clock instrument the delivery phase (see metrics.go). Both are
	// nil/unset until SetObserver; instrumentation is strictly observational
	// and never influences delivery output.
	obsReg *obs.Registry
	clock  obs.Clock
}

// New builds a platform over a user population: it trains the platform's
// content classifier, generates engagement logs, and fits the eAR model.
func New(cfg Config, pop *population.Population, behave *population.Behavior) (*Platform, error) {
	if pop == nil || pop.Len() == 0 {
		return nil, fmt.Errorf("platform: empty population")
	}
	if behave == nil {
		return nil, fmt.Errorf("platform: nil behaviour model")
	}
	if cfg.Ticks == 0 {
		cfg.Ticks = 48
	}
	if cfg.Ticks < 2 {
		return nil, fmt.Errorf("platform: need at least 2 pacing ticks, got %d", cfg.Ticks)
	}
	vision, err := face.Train(face.TrainOptions{CorpusSize: 4000, Seed: cfg.VisionSeed, LabelNoise: 0.02})
	if err != nil {
		return nil, fmt.Errorf("platform: training vision model: %w", err)
	}
	ear, err := trainEAR(cfg.Training, pop, behave, vision)
	if err != nil {
		return nil, err
	}
	return &Platform{
		cfg:       cfg,
		pop:       pop,
		behave:    behave,
		vision:    vision,
		ear:       ear,
		audiences: map[string]*CustomAudience{},
		campaigns: map[string]*Campaign{},
		ads:       map[string]*Ad{},
		stats:     map[string]*AdStats{},
		reviewRNG: rand.New(rand.NewSource(cfg.Seed + 77)),
	}, nil
}

// Inventory is a point-in-time census of the account's objects. The chaos
// soak asserts exactly-once creation under fault injection against it: a
// retried create that double-executed would inflate the counts, a lost one
// would leave them short.
type Inventory struct {
	Audiences int
	Campaigns int
	Ads       int
	// CampaignNames is sorted; duplicate names expose a double-created
	// campaign even when counts happen to balance out.
	CampaignNames []string
}

// Inventory counts the account's objects.
func (p *Platform) Inventory() Inventory {
	p.mu.RLock()
	defer p.mu.RUnlock()
	inv := Inventory{
		Audiences: len(p.audiences),
		Campaigns: len(p.campaigns),
		Ads:       len(p.ads),
	}
	for _, c := range p.campaigns {
		inv.CampaignNames = append(inv.CampaignNames, c.Name)
	}
	sort.Strings(inv.CampaignNames)
	return inv
}

// SetReviewRejectProb changes review strictness (used by the Appendix A
// experiment to reproduce the mass rejections).
func (p *Platform) SetReviewRejectProb(prob float64) error {
	if prob < 0 || prob > 1 {
		return fmt.Errorf("platform: reject probability %v outside [0,1]", prob)
	}
	p.mu.Lock()
	p.cfg.ReviewRejectProb = prob
	p.mu.Unlock()
	return nil
}

// CreateCampaign registers a campaign.
func (p *Platform) CreateCampaign(name string, obj Objective, special SpecialAdCategory, accountAge int) (*Campaign, error) {
	if name == "" {
		return nil, fmt.Errorf("platform: campaign needs a name")
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.nextID++
	c := &Campaign{
		ID:              fmt.Sprintf("cmp-%d", p.nextID),
		Name:            name,
		Objective:       obj,
		SpecialCategory: special,
		AccountAge:      accountAge,
	}
	p.campaigns[c.ID] = c
	cp := *c
	p.emit(Mutation{Kind: MutCampaignCreated, Campaign: &cp})
	return c, nil
}

// Campaign returns a campaign by ID. Campaigns are immutable after
// creation, so the shared pointer is safe to read without the lock.
func (p *Platform) Campaign(id string) (*Campaign, error) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.campaignLocked(id)
}

// campaignLocked looks up a campaign; the caller holds p.mu.
func (p *Platform) campaignLocked(id string) (*Campaign, error) {
	c, ok := p.campaigns[id]
	if !ok {
		return nil, fmt.Errorf("platform: unknown campaign %q", id)
	}
	return c, nil
}

// CreateAd validates targeting against the campaign's special-category
// restrictions, resolves the target audience, runs ad review, and registers
// the ad. A rejected ad is returned (with StatusRejected) along with a nil
// error: rejection is an outcome, not a failure of the call. The returned
// ad is a snapshot: later delivery does not mutate it.
func (p *Platform) CreateAd(campaignID string, creative Creative, targeting Targeting, dailyBudgetCents int) (*Ad, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	c, err := p.campaignLocked(campaignID)
	if err != nil {
		return nil, err
	}
	if dailyBudgetCents <= 0 {
		return nil, fmt.Errorf("platform: daily budget must be positive, got %d", dailyBudgetCents)
	}
	if err := targeting.Validate(c.SpecialCategory); err != nil {
		return nil, err
	}
	audience, err := p.resolveAudience(&targeting)
	if err != nil {
		return nil, err
	}
	p.nextID++
	ad := &Ad{
		ID:               fmt.Sprintf("ad-%d", p.nextID),
		CampaignID:       campaignID,
		Objective:        c.Objective,
		Creative:         creative,
		Targeting:        targeting,
		DailyBudgetCents: dailyBudgetCents,
		Status:           StatusActive,
		audience:         audience,
	}
	ad.perceived = p.perceive(creative.Image)
	ad.folded = p.ear.fold(&ad.perceived)
	if p.reviewRNG.Float64() < p.cfg.ReviewRejectProb {
		ad.Status = StatusRejected
	}
	p.ads[ad.ID] = ad
	// The emitted state carries the review outcome: replay must not re-roll
	// the review RNG.
	p.emit(Mutation{Kind: MutAdCreated, Ad: adState(ad)})
	return ad.snapshot(), nil
}

// Ad returns a snapshot of an ad by ID: a copy whose value fields (Status
// in particular) will not change under a concurrent delivery run.
func (p *Platform) Ad(id string) (*Ad, error) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	ad, err := p.adLocked(id)
	if err != nil {
		return nil, err
	}
	return ad.snapshot(), nil
}

// ErrUnknownAd marks a lookup of an ad ID the account does not hold.
var ErrUnknownAd = errors.New("platform: unknown ad")

// adLocked looks up the live ad object; the caller holds p.mu.
func (p *Platform) adLocked(id string) (*Ad, error) {
	ad, ok := p.ads[id]
	if !ok {
		return nil, fmt.Errorf("%w %q", ErrUnknownAd, id)
	}
	return ad, nil
}

// snapshot copies the ad for return outside the platform lock. Slices
// (audience, targeting) share backing arrays but are never mutated after
// creation; value fields like Status and spend are decoupled from the
// engine's live object.
func (ad *Ad) snapshot() *Ad {
	cp := *ad
	return &cp
}

// AppealAd re-reviews a rejected ad (the Appendix A appeal path). Appeals
// succeed with probability 1 - ReviewRejectProb, re-rolled independently.
// The returned ad is a snapshot reflecting the post-appeal status.
func (p *Platform) AppealAd(id string) (*Ad, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	ad, err := p.adLocked(id)
	if err != nil {
		return nil, err
	}
	if ad.Status != StatusRejected {
		return nil, fmt.Errorf("platform: ad %s is %v, only rejected ads can be appealed", id, ad.Status)
	}
	if p.reviewRNG.Float64() >= p.cfg.ReviewRejectProb {
		ad.Status = StatusActive
	}
	p.emit(Mutation{Kind: MutAdAppealed, Appeal: &AppealState{AdID: ad.ID, Status: ad.Status}})
	return ad.snapshot(), nil
}
