package platform

// The delivery engine. The audience is partitioned into `shards`
// deterministic round-robin slices; each shard runs its tick's auctions
// with its own RNG stream and thread-local accumulators, and everything
// shared is committed single-threaded at the tick barrier in fixed shard
// order. That makes the day's output a pure function of (ads, seed, shard
// count): repeated runs are bit-identical. workers=1 is the 1-shard day.
//
// Budget pacing is two-phase per tick, driven by the PacingController
// (pacing.go) whether the shards run in this process or behind a
// coordinator:
//
//	phase 1 (single-threaded): the controller updates every ad's effective
//	  bid from the *committed* spend and hands each shard a frozen
//	  []TickDirective (bid, committed spend, the shard's tick cap);
//	phase 2 (parallel): shards bid against that frozen snapshot, accruing
//	  spend and stats locally;
//	phase 3 (single-threaded): shard spend reports commit into the
//	  controller in shard order — fixed floating-point addition order —
//	  clamped so the daily budget is never exceeded, and buffered
//	  served-log rows flush in the same order.
//
// A 1-shard day charges spend per auction instead (see
// deliveryShard.perAuction): the historical oracle's addition order, which
// the workers=1 goldens pin.
//
// Per-user state (frequency caps, reach) needs no synchronization at all:
// a user lives in exactly one shard, so the shard's local maps are the
// authoritative ones.

import (
	"math"
	"math/rand"
	"sync"
	"time"

	"github.com/adaudit/impliedidentity/internal/demo"
	"github.com/adaudit/impliedidentity/internal/population"
)

// newDeliveryShard builds one shard's day state: its round-robin slice of
// the eligibility rows (ascending population order, so the slice spreads
// every demographic stratum across shards instead of giving one shard a
// contiguous, correlated block), a private RNG stream, and empty per-ad
// accumulators. A 1-shard day draws from the raw day seed and charges per
// auction; an N-shard day derives each stream from (seed, shard).
func newDeliveryShard(elig *eligIndex, seed int64, shard, shards, numAds, ticks int) *deliveryShard {
	if shards > 1 {
		seed = shardSeed(seed, shard)
	}
	sh := &deliveryShard{
		rng:        rand.New(rand.NewSource(seed)),
		order:      make([]int32, 0, (elig.rows()+shards-1-shard)/shards),
		perAuction: shards == 1,
		spent:      make([]float64, numAds),
		accs:       make([]*shardAcc, numAds),
	}
	for i := shard; i < elig.rows(); i += shards {
		sh.order = append(sh.order, int32(i))
	}
	for i := range sh.accs {
		sh.accs[i] = &shardAcc{
			hourly:    make([]int, ticks),
			breakdown: map[BreakdownKey]int{},
			race:      map[demo.Race]int{},
			reached:   map[int]struct{}{},
			frequency: map[int]int{},
		}
	}
	return sh
}

// mergeShardStats folds one shard's day-end accumulators into the stats map
// in run-index order. Map-to-map addition is insensitive to Go's randomized
// map iteration order, so the merged counts are deterministic even though
// the per-shard map walks are not. Reach adds because shards own disjoint
// users.
func mergeShardStats(stats map[string]*AdStats, active []*Ad, sh *deliveryShard) {
	for i, acc := range sh.accs {
		st := stats[active[i].ID]
		st.Impressions += acc.impressions
		st.Clicks += acc.clicks
		st.Reach += len(acc.reached)
		for t, v := range acc.hourly {
			st.HourlySeries[t] += v
		}
		for k, v := range acc.breakdown {
			st.Breakdown[k] += v
		}
		for r, v := range acc.race {
			st.RaceOracle[r] += v
		}
	}
}

// shardSeed derives one shard's RNG seed from the day seed with a
// splitmix64-style mixer, giving well-separated streams even for adjacent
// (seed, shard) pairs. The mapping depends only on its inputs, so a fixed
// (seed, workers) pair always reproduces the same streams.
func shardSeed(seed int64, shard int) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*uint64(shard+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// shardAcc is one ad's thread-local accumulator inside one shard. Spend is
// drained at every tick barrier; the counting stats merge once at day end.
type shardAcc struct {
	tickSpent   float64 // spend accrued this tick, reported at the barrier
	impressions int
	clicks      int
	hourly      []int
	breakdown   map[BreakdownKey]int
	race        map[demo.Race]int
	reached     map[int]struct{}
	frequency   map[int]int
}

// deliveryShard owns a disjoint slice of the audience (as row positions into
// the day's CSR eligibility index), a private RNG stream that persists across
// ticks, and per-ad accumulators. Everything per-ad is indexed by run index,
// the CSR index's ad addressing.
type deliveryShard struct {
	rng   *rand.Rand
	order []int32 // row positions into the day's eligIndex

	// perAuction is the spend ledger of a 1-shard day: each winning price
	// is clamped at the daily budget and charged into spent as the auction
	// clears, and the tick report carries the absolute committed spend.
	// Otherwise spent stays at the frozen tick-start snapshot and the report
	// carries the tick's unclamped accrual for the controller to fold.
	perAuction bool

	dirs     []TickDirective // this tick's frozen snapshot, by run index
	spent    []float64       // committed spend the auctions bid against
	accs     []*shardAcc
	served   []servedRow // buffered rows, flushed at the tick barrier
	auctions int64
}

// reportSpend writes the shard's tick spend report (see perAuction) into
// out, indexed by run index, and resets the tick accrual.
func (sh *deliveryShard) reportSpend(out []float64) {
	for i, acc := range sh.accs {
		if sh.perAuction {
			out[i] = sh.spent[i]
		} else {
			out[i] = acc.tickSpent
		}
		acc.tickSpent = 0
	}
}

// runDay runs one in-process delivery day over `workers` shards, paced by
// the same PacingController a cross-process coordinator uses. The caller
// holds p.mu for writing for the whole day; parallelism lives entirely
// inside this call. Returns the auction count, the total time spent in
// barrier commits (zero unless an observer is installed), and the day's
// authoritative per-ad spend in cents.
func (p *Platform) runDay(active []*Ad, elig *eligIndex, plan *DayInit, seed int64, workers int) (int64, time.Duration, []float64, error) {
	ctrl, err := NewPacingController(plan, workers)
	if err != nil {
		return 0, 0, nil, err
	}
	shards := make([]*deliveryShard, workers)
	reports := make([][]float64, workers)
	for s := range shards {
		shards[s] = newDeliveryShard(elig, seed, s, workers, len(active), plan.Ticks)
		reports[s] = make([]float64, len(active))
	}

	var mergeTime time.Duration
	timed := p.obsReg != nil
	for tick := 0; tick < plan.Ticks; tick++ {
		dirs := ctrl.TickDirectives(tick)
		p.runShardTick(shards, active, elig, tick, dirs)

		var commitStart time.Time
		if timed {
			commitStart = p.clock.Now()
		}
		for s, sh := range shards {
			sh.reportSpend(reports[s])
		}
		if err := ctrl.CommitTick(reports); err != nil {
			return 0, 0, nil, err
		}
		// Serve-log rows flush in shard order, so the retraining buffer
		// (and its maxServedLog truncation point) is deterministic.
		for _, sh := range shards {
			for _, row := range sh.served {
				p.recordServed(row.userIdx, row.ad, row.clicked)
			}
			sh.served = sh.served[:0]
		}
		if timed {
			mergeTime += p.clock.Now().Sub(commitStart)
		}
	}

	// Day-end merge, fixed shard order.
	var auctions int64
	for _, sh := range shards {
		auctions += sh.auctions
		mergeShardStats(p.stats, active, sh)
	}
	return auctions, mergeTime, ctrl.SpendCents(), nil
}

// runShardTick runs phase 2 of one tick on every shard — shard 0 on the
// calling goroutine, the rest on one goroutine each — and waits for all of
// them. The wait is the tick barrier of the two-phase pacing design: no
// shared mutation happens until every shard has parked, so the commit phase
// that follows needs no locking at all.
func (p *Platform) runShardTick(shards []*deliveryShard, active []*Ad, elig *eligIndex, tick int, dirs []TickDirective) {
	var wg sync.WaitGroup
	for _, sh := range shards[1:] {
		wg.Add(1)
		go func(sh *deliveryShard) {
			defer wg.Done()
			p.shardTick(sh, active, elig, tick, dirs)
		}(sh)
	}
	p.shardTick(shards[0], active, elig, tick, dirs)
	wg.Wait()
}

// shardTick runs one shard's slice of a tick under the frozen directives:
// shuffle the shard's row positions with the shard RNG (the order persists
// across ticks), then run each user's sessions. dirs is shared by every
// shard and only read.
func (p *Platform) shardTick(sh *deliveryShard, active []*Ad, elig *eligIndex, tick int, dirs []TickDirective) {
	sh.dirs = dirs
	for i := range dirs {
		sh.spent[i] = dirs[i].Spent
	}
	rng := sh.rng
	order := sh.order
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	ticks := float64(p.cfg.Ticks)
	for _, pos := range order {
		u := p.pop.View(int(elig.users[pos]))
		sessions := poisson(rng, u.Activity()/ticks)
		sh.auctions += int64(sessions)
		for s := 0; s < sessions; s++ {
			p.shardAuction(sh, active, u, elig.adsFor(pos), tick)
		}
	}
}

// shardAuction runs one ad slot: the eligible audit ads (run indexes
// straight out of the CSR index) compete with each other and with
// background advertiser demand; the winner pays the second price. Spend and
// stats accrue into the shard's accumulators.
func (p *Platform) shardAuction(sh *deliveryShard, active []*Ad, u population.UserView, eligible []int32, tick int) {
	rng := sh.rng
	uid := u.ID()
	bg := p.backgroundBid(rng, u)
	winner := int32(-1)
	best, second := bg, 0.0
	// Random starting offset so exact-tie auctions don't systematically
	// favor earlier-created ads.
	off := 0
	if len(eligible) > 1 {
		off = rng.Intn(len(eligible))
	}
	for k := range eligible {
		i := eligible[(k+off)%len(eligible)]
		ad, dir := active[i], &sh.dirs[i]
		if dir.Pacing <= 0 || sh.spent[i] >= float64(ad.DailyBudgetCents)/100 || sh.accs[i].tickSpent >= dir.Cap {
			continue
		}
		if p.cfg.FrequencyCap > 0 && sh.accs[i].frequency[uid] >= p.cfg.FrequencyCap {
			continue
		}
		value := dir.Pacing*p.optimizationTerm(ad, u) + p.cfg.Quality
		if p.cfg.ValueNoise > 0 {
			sigma := p.cfg.ValueNoise
			value *= math.Exp(sigma*rng.NormFloat64() - sigma*sigma/2)
		}
		if value > best {
			second = best
			best = value
			winner = i
		} else if value > second {
			second = value
		}
	}
	if winner < 0 {
		return
	}
	ad, acc := active[winner], sh.accs[winner]
	price := math.Max(second, bg)
	if sh.perAuction {
		// Overspend clamp: never charge past the daily budget. The clamp
		// cannot change any auction outcome or RNG draw: it only truncates
		// the single budget-crossing price, and after that charge the ad
		// is ineligible (spent >= budget) whether or not it was clamped.
		if budget := float64(ad.DailyBudgetCents) / 100; sh.spent[winner]+price > budget {
			price = budget - sh.spent[winner]
		}
		sh.spent[winner] += price
	}
	acc.tickSpent += price
	acc.impressions++
	acc.hourly[tick]++
	acc.breakdown[BreakdownKey{
		Age:    u.AgeBucket(),
		Gender: u.Gender(),
		Region: p.deliveryRegion(rng, u),
	}]++
	acc.race[u.Race()]++
	acc.reached[uid] = struct{}{}
	acc.frequency[uid]++
	// Traffic objective: record clicks from ground-truth behaviour and log
	// the served impression into the retraining buffer — the feedback loop
	// Retrain closes.
	clicked := rng.Float64() < p.behave.ClickProb(u, ad.Creative.Image)
	if clicked {
		acc.clicks++
	}
	sh.served = append(sh.served, servedRow{userIdx: uid, ad: ad, clicked: clicked})
}
