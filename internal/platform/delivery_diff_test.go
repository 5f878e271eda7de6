package platform

// Differential determinism suite for the delivery engine.
//
// Three claims are pinned here:
//
//  1. workers=1, the 1-shard day, is byte-identical to the historical
//     sequential engine, asserted against golden digests captured from
//     that implementation before the sharded engine existed (the
//     budget-bound cases and served-log digests were captured from it
//     later, before it was folded into the sharded engine). These digests
//     must never change; a diff here means the RNG draw order or
//     accounting moved.
//  2. workers 2/4/8 match golden digests captured before the columnar
//     population refactor.
//  3. Every parallel worker count is self-deterministic: repeated runs of
//     the same (ads, seed, workers) input produce identical AdStats —
//     impressions, clicks, spend, breakdown cells, RaceOracle, and
//     HourlySeries. Repeats use freshly created (identical-spec) ad sets,
//     so the assertion also catches any dependence on map layout or
//     allocation history.
//
// The first three golden scenarios use budgets far above the market's
// natural spend ceiling, so they pin the auction and RNG draw order with no
// budget pressure. The two budget-bound scenarios pin the tick-cap and
// overspend-clamp paths byte for byte. Every case also pins the order of
// the served log that feeds Retrain.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"testing"

	"github.com/adaudit/impliedidentity/internal/demo"
	"github.com/adaudit/impliedidentity/internal/image"
)

// deliveryDigest canonicalizes the ads' delivery reports — sorted
// serializable form with ad IDs normalized to creation order, so digests
// are comparable across ad sets created at different points in a
// platform's ID sequence — and hashes them.
func deliveryDigest(t *testing.T, p *Platform, adIDs []string) string {
	t.Helper()
	states := make([]AdStatsState, 0, len(adIDs))
	for i, id := range adIDs {
		st, err := p.Insights(id)
		if err != nil {
			t.Fatal(err)
		}
		ss := adStatsState(st)
		ss.AdID = fmt.Sprintf("ad#%d", i)
		states = append(states, *ss)
	}
	b, err := json.Marshal(states)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// servedDigest hashes the retraining-buffer rows appended since position
// from — (user, ad position in adIDs, clicked), in buffer order — so the
// order in which a day feeds Retrain is pinned alongside its insights.
func servedDigest(t *testing.T, p *Platform, adIDs []string, from int) string {
	t.Helper()
	pos := make(map[string]int, len(adIDs))
	for i, id := range adIDs {
		pos[id] = i
	}
	p.mu.RLock()
	defer p.mu.RUnlock()
	h := sha256.New()
	for _, row := range p.served[from:] {
		i, ok := pos[row.ad.ID]
		if !ok {
			t.Fatalf("served row for ad %s outside the run's ad set", row.ad.ID)
		}
		fmt.Fprintf(h, "%d,%d,%t\n", row.userIdx, i, row.clicked)
	}
	return hex.EncodeToString(h.Sum(nil))
}

type diffAdSpec struct {
	img    image.Features
	budget int
}

// createAdSet creates one campaign with one ad per spec and returns the ad
// IDs in creation order.
func createAdSet(t *testing.T, p *Platform, objective Objective, caID string, specs []diffAdSpec) []string {
	t.Helper()
	cmp, err := p.CreateCampaign("diff", objective, SpecialNone, 2019)
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]string, 0, len(specs))
	for _, s := range specs {
		ad, err := p.CreateAd(cmp.ID, Creative{Image: s.img, Headline: "h", LinkURL: "https://example.com"}, Targeting{CustomAudienceIDs: []string{caID}}, s.budget)
		if err != nil {
			t.Fatal(err)
		}
		if ad.Status != StatusActive {
			t.Fatalf("ad %s not active: %v", ad.ID, ad.Status)
		}
		ids = append(ids, ad.ID)
	}
	return ids
}

// diffCase is one (seed, population slice, ad mix) configuration plus the
// golden digests of the engine's output for it.
type diffCase struct {
	name    string
	cfg     func() Config
	setup   func(t *testing.T, p *Platform, f *fixture) string // returns audience ID
	obj     Objective
	specs   []diffAdSpec
	runSeed int64
	// golden is the workers=1 digest.
	golden string
	// sharded holds per-worker-count golden digests captured from the
	// sharded engine before the columnar population refactor, pinning the
	// parallel paths byte-for-byte across representation changes.
	sharded map[int]string
	// served holds per-worker-count served-log digests (see servedDigest),
	// workers=1 included.
	served map[int]string
}

func diffCases() []diffCase {
	imgWM := image.FromProfile(demo.Profile{Gender: demo.GenderMale, Race: demo.RaceWhite, Age: demo.ImpliedAdult})
	imgBM := image.FromProfile(demo.Profile{Gender: demo.GenderMale, Race: demo.RaceBlack, Age: demo.ImpliedAdult})
	imgBF := image.FromProfile(demo.Profile{Gender: demo.GenderFemale, Race: demo.RaceBlack, Age: demo.ImpliedAdult})
	imgWF := image.FromProfile(demo.Profile{Gender: demo.GenderFemale, Race: demo.RaceWhite, Age: demo.ImpliedAdult})
	return []diffCase{
		{
			name: "traffic_balanced",
			cfg:  func() Config { return testConfig(501) },
			setup: func(t *testing.T, p *Platform, f *fixture) string {
				return uploadBalancedAudience(t, p, f, 60, 51)
			},
			obj:     ObjectiveTraffic,
			specs:   []diffAdSpec{{imgWM, 2_000_000}, {imgBM, 2_000_000}},
			runSeed: 9001,
			golden:  "bfab4b68f56278ae3d81c3b18c0fc06f6dc41658a212e7d85d1bc21317af4557",
			sharded: map[int]string{
				2: "2645fac0a84d0db98b1cea2ee261bd8fb8ab3b08cd33ceb93f0f56f9f897d31f",
				4: "8788f405a671510acf6823d9c7157f0321d2596d149c50eba2ee049b4570cb59",
				8: "18e644fb449ca983042cbb3295fbd7f1b537924d350471ca65805e08720bf01a",
			},
			served: map[int]string{
				1: "2e55444d0cbe7b366533fee3634b85fc8cad91becf1552fd85ed7d6615c1fce1",
				2: "24ec03569fecf3bcc3db6c05a5236b73a43b532aa04a56114765304562c6f4db",
				4: "baef1565ddf9bd12a579db0fb3ec17de27d432d41e679aefd8d93950aff1057a",
				8: "ddea4a505cfeabe5fcd065495382737ca3ebf9ff7af0006ced60934d9e5d3e50",
			},
		},
		{
			name: "conversions_split_24ticks",
			cfg: func() Config {
				cfg := testConfig(502)
				cfg.Ticks = 24
				cfg.FrequencyCap = 2
				return cfg
			},
			setup: func(t *testing.T, p *Platform, f *fixture) string {
				return splitAudience(t, p, f, 800, false, 52)
			},
			obj:     ObjectiveConversions,
			specs:   []diffAdSpec{{imgWM, 1_500_000}, {imgBM, 1_500_000}, {imgBF, 2_000_000}},
			runSeed: 9002,
			golden:  "b35bc4589ba175aa3beaa852e19138add87d1f677f58f649d6cea66ba1fcc9b1",
			sharded: map[int]string{
				2: "371de01a25f6e4fe10d18924b2e5853d39a868fc342bdbc393208fd3dfc84f9f",
				4: "b9c926bc437fb3cfc969ab7ab266980621c4f7bfb45dd41a4949c8d6f11358dc",
				8: "b5e91ae3b517d5176daccc0786ade1e3462a07f955abc7b1ef2a7e8a12168234",
			},
			served: map[int]string{
				1: "31332023a4683d05966e3380ce1d1b5890d7372c3c71b29e2cfcb5208405f452",
				2: "cd311caca446a7ecc4424700c7dd0946c7ef8b3f6b2146b24cf651559cef17f8",
				4: "b656a2a4d92c10c67eb44a19fc7d0b70f838ca7ec86a1a88de3e07a0466e712f",
				8: "4409969505a0a76410636e3e9fff8f7525e9528061f226af7392a30cfdaab670",
			},
		},
		{
			name: "awareness_noiseless_ties",
			cfg: func() Config {
				cfg := testConfig(503)
				cfg.ValueNoise = 0
				return cfg
			},
			setup: func(t *testing.T, p *Platform, f *fixture) string {
				return uploadBalancedAudience(t, p, f, 40, 53)
			},
			obj:     ObjectiveAwareness,
			specs:   []diffAdSpec{{imgWF, 30_000_000}, {imgBF, 30_000_000}, {imgWM, 20_000_000}, {imgBM, 20_000_000}},
			runSeed: 9003,
			golden:  "5d41bd178b88923945493808e66212c304839779775a029dfe7db5fb08097107",
			sharded: map[int]string{
				2: "4fb23637227ec9562e6b1541a96d3f4314c8b9544343ccb0174b96de063626dc",
				4: "0768544c3f58d3a191dcb04c36e39a7ac1fda211fcf362698d045292802c9a3e",
				8: "28b1c0226c7300ffd60ea2f72c02a06142f288aa16933aaca11aae65b3438f02",
			},
			served: map[int]string{
				1: "d1f967d23d0c9c966f6cdfa63952d244520aae4f1fdef243019a6c118bba738f",
				2: "26f7258a18be38e5c0aa487d47cd27404e177259e4319fc09633df184141148a",
				4: "54fd28990696ce3579e9dd9e8ca9d615faae628c5e6f3a04ecbffe80c3188864",
				8: "095b34b1e249b6b264d4492d2f1ee99eff7b22be62d76f9589692e7b552435bb",
			},
		},
		{
			// Budget-bound: per-tick caps bind and the day ends just short
			// of the budget, so the tick-cap and spend-clamp paths run.
			name:    "paced_budget_bound",
			cfg:     budgetBoundConfig(false),
			setup:   budgetBoundAudience,
			obj:     ObjectiveTraffic,
			specs:   []diffAdSpec{{imgWM, 1000}, {imgBF, 1500}},
			runSeed: 7008,
			golden:  "28d4089f6201152ad8418f3dc3c2997fa79e48359152899c50e88bbb35a236ba",
			sharded: map[int]string{
				2: "f35e0cdb51dd13aafcc4ea1c51b2ab8657ef744576f9cdcf5afb32992d5f6445",
				4: "c493a77b85c45550a45c9c507fd7b65f2e5f7c6ad81d205dec29be730bc41545",
				8: "b83a9efea1bbf679b549991a0eb22dbc31bd8cf84da41d137fa4547d3337bfc9",
			},
			served: map[int]string{
				1: "869622b3ab4bac2e781a92fc70231fdfb5b380ea1b0de56246d18e8084bf2c0d",
				2: "461719a35fa545a818984ee71fe51461de51e9907199fb3934df9549c918e237",
				4: "d2a4375277a9457b7d2563846961bc74006ac53b554630d5b57851f605942f63",
				8: "68196ce07e834d96b3755f422f9ff0f6f072682836e9e8a8b80b1fef138063f8",
			},
		},
		{
			name:    "greedy_budget_bound",
			cfg:     budgetBoundConfig(true),
			setup:   budgetBoundAudience,
			obj:     ObjectiveTraffic,
			specs:   []diffAdSpec{{imgWM, 1000}, {imgBF, 1500}},
			runSeed: 7008,
			golden:  "edc529916fd6cc6dd439bb1a286db1bffb9d0805bebc8a8050f74a0d888569fa",
			sharded: map[int]string{
				2: "11e688168109951f77f055202bd3c360d1dfe4a3dce56ccd9c263aaef57b9fb0",
				4: "86f753f96e684f88d045c6a0fef9146c30880f7e84ec7419f4dc1fb0a9e8fc9b",
				8: "1044216c0edd8c25771b0b8f5e829e05d5f93ae041092a4bcaa49a3d3332a2c3",
			},
			served: map[int]string{
				1: "9a8fdb049ec49db0b119a82071d449b9cae202a9383cb1796fbd56661456a554",
				2: "4cc30915ecd18d3b728f0e6d21ca6b1cf8dd0188512e8f602273f48bad8f9cc3",
				4: "6bfd04389e488e35c6cb48fd552a0bfad7b41e2deb2e1c138f570dfe63eb2f84",
				8: "61a6f72d36ecfd22c7a6d7f4ddd41202f469e678930526dedc1c3a1ed905ce31",
			},
		},
	}
}

// budgetBoundConfig is the configuration of the budget-bound golden cases.
func budgetBoundConfig(greedy bool) func() Config {
	return func() Config {
		cfg := testConfig(604)
		cfg.FrequencyCap = 2
		cfg.GreedyPacing = greedy
		return cfg
	}
}

func budgetBoundAudience(t *testing.T, p *Platform, f *fixture) string {
	return uploadBalancedAudience(t, p, f, 50, 64)
}

// TestDeliverySequentialMatchesGoldens pins the 1-shard day (workers=1) to
// the digests captured from the historical sequential implementation.
func TestDeliverySequentialMatchesGoldens(t *testing.T) {
	f := sharedFixture(t)
	for _, tc := range diffCases() {
		t.Run(tc.name, func(t *testing.T) {
			p, err := New(tc.cfg(), f.pop, f.behave)
			if err != nil {
				t.Fatal(err)
			}
			caID := tc.setup(t, p, f)
			ids := createAdSet(t, p, tc.obj, caID, tc.specs)
			from := p.ServedLogSize()
			if err := p.RunDayWorkers(ids, tc.runSeed, 1); err != nil {
				t.Fatal(err)
			}
			if got := deliveryDigest(t, p, ids); got != tc.golden {
				t.Errorf("workers=1 output diverged from the sequential golden:\n got %s\nwant %s", got, tc.golden)
			}
			if got := servedDigest(t, p, ids, from); got != tc.served[1] {
				t.Errorf("workers=1 served log diverged from golden:\n got %s\nwant %s", got, tc.served[1])
			}
		})
	}
}

// TestDeliveryShardedMatchesGoldens pins the parallel engine at workers
// 2, 4, and 8 to digests captured before the columnar population refactor:
// proof that moving the user store from structs to columns (and the audience
// index from a sorted map to CSR) changed no RNG draw, auction outcome, or
// accounting step on any shard.
func TestDeliveryShardedMatchesGoldens(t *testing.T) {
	f := sharedFixture(t)
	for _, tc := range diffCases() {
		t.Run(tc.name, func(t *testing.T) {
			p, err := New(tc.cfg(), f.pop, f.behave)
			if err != nil {
				t.Fatal(err)
			}
			caID := tc.setup(t, p, f)
			for _, workers := range []int{2, 4, 8} {
				ids := createAdSet(t, p, tc.obj, caID, tc.specs)
				from := p.ServedLogSize()
				if err := p.RunDayWorkers(ids, tc.runSeed, workers); err != nil {
					t.Fatal(err)
				}
				if got := deliveryDigest(t, p, ids); got != tc.sharded[workers] {
					t.Errorf("workers=%d output diverged from the pre-refactor golden:\n got %s\nwant %s", workers, got, tc.sharded[workers])
				}
				if got := servedDigest(t, p, ids, from); got != tc.served[workers] {
					t.Errorf("workers=%d served log diverged from golden:\n got %s\nwant %s", workers, got, tc.served[workers])
				}
			}
		})
	}
}

// TestDeliveryShardedSelfDeterministic asserts that for each parallel
// worker count, three repeated runs of the same delivery day are
// bit-identical. Each repeat uses a freshly created ad set with identical
// specs, so the digest comparison (over normalized IDs) also proves the
// output does not depend on object identity, ID numbering, or map layout.
func TestDeliveryShardedSelfDeterministic(t *testing.T) {
	f := sharedFixture(t)
	for _, tc := range diffCases() {
		t.Run(tc.name, func(t *testing.T) {
			p, err := New(tc.cfg(), f.pop, f.behave)
			if err != nil {
				t.Fatal(err)
			}
			caID := tc.setup(t, p, f)
			for _, workers := range []int{2, 4, 8} {
				var digests []string
				for rep := 0; rep < 3; rep++ {
					ids := createAdSet(t, p, tc.obj, caID, tc.specs)
					if err := p.RunDayWorkers(ids, tc.runSeed, workers); err != nil {
						t.Fatal(err)
					}
					digests = append(digests, deliveryDigest(t, p, ids))
				}
				for rep := 1; rep < len(digests); rep++ {
					if digests[rep] != digests[0] {
						t.Errorf("workers=%d repeat %d diverged:\n got %s\nwant %s", workers, rep, digests[rep], digests[0])
					}
				}
			}
		})
	}
}

// TestDeliveryWorkersFallsBackToConfig checks that RunDay (and an explicit
// workers<=0) use Config.DeliveryWorkers, by matching the digest of an
// explicit worker count.
func TestDeliveryWorkersFallsBackToConfig(t *testing.T) {
	f := sharedFixture(t)
	tc := diffCases()[0]
	cfg := tc.cfg()
	cfg.DeliveryWorkers = 4
	p, err := New(cfg, f.pop, f.behave)
	if err != nil {
		t.Fatal(err)
	}
	caID := tc.setup(t, p, f)

	explicit := createAdSet(t, p, tc.obj, caID, tc.specs)
	if err := p.RunDayWorkers(explicit, tc.runSeed, 4); err != nil {
		t.Fatal(err)
	}
	viaConfig := createAdSet(t, p, tc.obj, caID, tc.specs)
	if err := p.RunDay(viaConfig, tc.runSeed); err != nil {
		t.Fatal(err)
	}
	if a, b := deliveryDigest(t, p, explicit), deliveryDigest(t, p, viaConfig); a != b {
		t.Errorf("RunDay with DeliveryWorkers=4 diverged from explicit workers=4:\n got %s\nwant %s", b, a)
	}
}
