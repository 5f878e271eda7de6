package coordinator

// End-to-end tests over real HTTP: a fleet of marketing servers (each a full
// platform instance, exactly what cmd/adplatform serves) behind the router.
// The determinism claims proved in-process by internal/platform's
// delivery_session tests are re-proved here across the wire, plus the
// failure paths only the coordinator owns: whole-day restart after a shard
// crash and partial-commit replay after a failed finish fan-out.

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"github.com/adaudit/impliedidentity/internal/demo"
	"github.com/adaudit/impliedidentity/internal/image"
	"github.com/adaudit/impliedidentity/internal/marketing"
	"github.com/adaudit/impliedidentity/internal/obs"
	"github.com/adaudit/impliedidentity/internal/platform"
	"github.com/adaudit/impliedidentity/internal/population"
	"github.com/adaudit/impliedidentity/internal/voter"
)

// The shared world: every backend (and the in-process reference) holds the
// same population and behavior model, like shard processes launched with the
// same -seed. Built once — world generation and model training dominate test
// time.
var (
	worldOnce sync.Once
	worldPop  *population.Population
	worldBeh  *population.Behavior
	worldHash []string
)

func world(t *testing.T) {
	t.Helper()
	worldOnce.Do(func() {
		flCfg := voter.DefaultGeneratorConfig(demo.StateFL, 701)
		flCfg.NumVoters = 6000
		fl, err := voter.Generate(flCfg)
		if err != nil {
			panic(err)
		}
		pop, err := population.Build(population.Config{Seed: 702}, fl)
		if err != nil {
			panic(err)
		}
		behave, err := population.NewBehavior(population.DefaultBehaviorConfig())
		if err != nil {
			panic(err)
		}
		hashes := make([]string, 0, 2000)
		for i := range fl.Records[:2000] {
			r := &fl.Records[i]
			hashes = append(hashes, population.HashPII(r.FirstName, r.LastName, r.Address, r.ZIP))
		}
		worldPop, worldBeh, worldHash = pop, behave, hashes
	})
}

func newPlatform(t *testing.T) *platform.Platform {
	t.Helper()
	world(t)
	cfg := platform.DefaultConfig(703)
	cfg.Training.LogRows = 2500
	cfg.ReviewRejectProb = 0
	p, err := platform.New(cfg, worldPop, worldBeh)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// newBackend serves one full platform over HTTP, optionally wrapped in a
// fault middleware (nil for none).
func newBackend(t *testing.T, wrap func(http.Handler) http.Handler) string {
	t.Helper()
	srv, err := marketing.NewServer(newPlatform(t))
	if err != nil {
		t.Fatal(err)
	}
	h := http.Handler(srv.Handler())
	if wrap != nil {
		h = wrap(h)
	}
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	return ts.URL
}

// newFleet stands up n shard backends, the coordinator, and the router's
// HTTP server, returning an API client pointed at the router.
func newFleet(t *testing.T, n int, wrap map[int]func(http.Handler) http.Handler) (*Coordinator, *marketing.Client) {
	t.Helper()
	backends := make([]string, n)
	for i := range backends {
		backends[i] = newBackend(t, wrap[i])
	}
	reg := obs.NewRegistry()
	coord, err := New(Config{Backends: backends, DayBackoff: time.Millisecond}, reg)
	if err != nil {
		t.Fatal(err)
	}
	// Fast client retries: the failure tests exhaust attempt budgets on
	// purpose and must not sleep through real backoffs.
	coord.SetRetryPolicy(marketing.RetryPolicy{MaxAttempts: 2, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond})
	router, err := NewRouter(coord, reg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(router.Handler())
	t.Cleanup(ts.Close)
	client, err := marketing.NewClient(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	client.SetRetryPolicy(marketing.RetryPolicy{MaxAttempts: 2, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond})
	return coord, client
}

// setupAccount uploads the audience, creates a campaign, and creates nAds
// identically-specced ads through the given API client (router or direct
// backend — same call sequence, so ID allocation stays aligned).
func setupAccount(t *testing.T, client *marketing.Client, nAds int) []string {
	t.Helper()
	ctx := context.Background()
	ca, err := client.CreateAudience(ctx, "e2e-aud", worldHash)
	if err != nil {
		t.Fatal(err)
	}
	if ca.MatchedSize == 0 {
		t.Fatal("audience matched no users")
	}
	cmp, err := client.CreateCampaign(ctx, marketing.CreateCampaignRequest{Name: "e2e-cmp", Objective: "TRAFFIC"})
	if err != nil {
		t.Fatal(err)
	}
	return createAdSet(t, client, cmp.ID, ca.ID, nAds)
}

// createAdSet creates nAds ads with deterministic per-index specs on an
// existing campaign/audience.
func createAdSet(t *testing.T, client *marketing.Client, campaignID, audienceID string, nAds int) []string {
	t.Helper()
	ctx := context.Background()
	genders := []demo.Gender{demo.GenderFemale, demo.GenderMale}
	races := []demo.Race{demo.RaceBlack, demo.RaceWhite}
	ids := make([]string, 0, nAds)
	for i := 0; i < nAds; i++ {
		img := image.FromProfile(demo.Profile{
			Gender: genders[i%2],
			Race:   races[(i/2)%2],
			Age:    demo.ImpliedAdult,
		})
		ad, err := client.CreateAd(ctx, marketing.CreateAdRequest{
			CampaignID: campaignID,
			Creative: marketing.WireCreative{
				Image:    marketing.WireImageFrom(img),
				Headline: fmt.Sprintf("e2e-ad-%d", i),
				LinkURL:  "https://example.test/offer",
			},
			Targeting:        marketing.WireTargeting{CustomAudienceIDs: []string{audienceID}},
			DailyBudgetCents: 200 + 50*i,
		})
		if err != nil {
			t.Fatal(err)
		}
		if ad.Status != "ACTIVE" {
			t.Fatalf("ad %d status %q", i, ad.Status)
		}
		ids = append(ids, ad.ID)
	}
	return ids
}

// insightsDigest hashes the full wire-level delivery report of every ad —
// the plain insights response plus the full age×gender×region breakdown —
// with ad IDs normalized to their index so runs with different allocation
// histories stay comparable.
func insightsDigest(t *testing.T, client *marketing.Client, ids []string) string {
	t.Helper()
	ctx := context.Background()
	type adReport struct {
		Full  *marketing.InsightsResponse `json:"full"`
		Cells *marketing.InsightsResponse `json:"cells"`
	}
	reports := make([]adReport, 0, len(ids))
	for i, id := range ids {
		full, err := client.Insights(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		cells, err := client.InsightsBreakdown(ctx, id, "age", "gender", "region")
		if err != nil {
			t.Fatal(err)
		}
		full.AdID = fmt.Sprintf("ad#%d", i)
		cells.AdID = full.AdID
		reports = append(reports, adReport{Full: full, Cells: cells})
	}
	b, err := json.Marshal(reports)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestRouterMatchesSingleProcess is the cross-process determinism claim over
// real HTTP: for 1, 2, and 4 shards, a router-coordinated delivery day
// produces, through the same wire-level insights surface, exactly what one
// adplatform process produces with the in-process engine at the same worker
// count. The 1-shard case pins the router to workers=1 (and thereby to the
// historical goldens, which the platform tests tie to the 1-shard day).
func TestRouterMatchesSingleProcess(t *testing.T) {
	const nAds = 3
	const seed = 9100
	for _, shards := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			refURL := newBackend(t, nil)
			refClient, err := marketing.NewClient(refURL)
			if err != nil {
				t.Fatal(err)
			}
			refIDs := setupAccount(t, refClient, nAds)
			if err := refClient.DeliverWorkers(context.Background(), refIDs, seed, shards); err != nil {
				t.Fatal(err)
			}
			want := insightsDigest(t, refClient, refIDs)

			_, client := newFleet(t, shards, nil)
			ids := setupAccount(t, client, nAds)
			if err := client.Deliver(context.Background(), ids, seed); err != nil {
				t.Fatal(err)
			}
			if got := insightsDigest(t, client, ids); got != want {
				t.Errorf("%d-shard router day diverged from single-process workers=%d:\n got %s\nwant %s", shards, shards, got, want)
			}
		})
	}
}

// TestRouterRepeatDeterminism: two delivery days over the same fleet with
// identically-specced fresh ad sets and the same seed are byte-identical —
// the self-determinism half of the acceptance criteria (re-running the whole
// fleet from scratch is the CI smoke's job).
func TestRouterRepeatDeterminism(t *testing.T) {
	const seed = 9200
	_, client := newFleet(t, 2, nil)
	ctx := context.Background()
	ca, err := client.CreateAudience(ctx, "rep-aud", worldHash)
	if err != nil {
		t.Fatal(err)
	}
	cmp, err := client.CreateCampaign(ctx, marketing.CreateCampaignRequest{Name: "rep-cmp", Objective: "TRAFFIC"})
	if err != nil {
		t.Fatal(err)
	}
	var digests []string
	for run := 0; run < 2; run++ {
		ids := createAdSet(t, client, cmp.ID, ca.ID, 3)
		if err := client.Deliver(ctx, ids, seed); err != nil {
			t.Fatal(err)
		}
		digests = append(digests, insightsDigest(t, client, ids))
	}
	if digests[0] != digests[1] {
		t.Errorf("repeated router day diverged:\n run0 %s\n run1 %s", digests[0], digests[1])
	}
}

// faultGate injects one-shot failures into a backend's shard-delivery routes,
// emulating crashes from the coordinator's point of view.
type faultGate struct {
	mu          sync.Mutex
	tickFails   int // remaining ticks answered 409 (as a restarted shard would)
	finishFails int // remaining finishes answered 500 (shard dies in the commit fan-out)
}

func (g *faultGate) wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		g.mu.Lock()
		switch {
		case r.URL.Path == "/v1/shard/delivery/tick" && g.tickFails > 0:
			g.tickFails--
			g.mu.Unlock()
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusConflict)
			fmt.Fprint(w, `{"error":"injected: shard restarted, delivery session lost"}`)
			return
		case r.URL.Path == "/v1/shard/delivery/finish" && g.finishFails > 0:
			g.finishFails--
			g.mu.Unlock()
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusInternalServerError)
			fmt.Fprint(w, `{"error":"injected: shard crashed during commit"}`)
			return
		}
		g.mu.Unlock()
		next.ServeHTTP(w, r)
	})
}

// TestRouterDayRestartAfterShardCrash: a shard that loses its session
// mid-day (409 on a tick) forces the coordinator to abort and re-run the
// whole day, and the re-run still matches the unfaulted single-process
// reference bit for bit.
func TestRouterDayRestartAfterShardCrash(t *testing.T) {
	const nAds = 2
	const seed = 9300
	refURL := newBackend(t, nil)
	refClient, err := marketing.NewClient(refURL)
	if err != nil {
		t.Fatal(err)
	}
	refIDs := setupAccount(t, refClient, nAds)
	if err := refClient.DeliverWorkers(context.Background(), refIDs, seed, 2); err != nil {
		t.Fatal(err)
	}
	want := insightsDigest(t, refClient, refIDs)

	gate := &faultGate{tickFails: 1}
	coord, client := newFleet(t, 2, map[int]func(http.Handler) http.Handler{1: gate.wrap})
	ids := setupAccount(t, client, nAds)
	if err := client.Deliver(context.Background(), ids, seed); err != nil {
		t.Fatal(err)
	}
	if got := insightsDigest(t, client, ids); got != want {
		t.Errorf("post-restart day diverged from reference:\n got %s\nwant %s", got, want)
	}
	if restarts := coord.reg.Snapshot().Counters[MetricDayRestarts]; restarts < 1 {
		t.Errorf("restart counter = %d, want >= 1", restarts)
	}
}

// TestRouterPartialCommitReplay: one shard commits its day durably while the
// other fails every finish attempt — the asymmetric window. The next attempt
// must recognize the partial commit and replay the recorded day on the
// straggler only, converging on the reference output (a full re-run would
// 400 on the already-completed shard).
func TestRouterPartialCommitReplay(t *testing.T) {
	const nAds = 2
	const seed = 9400
	refURL := newBackend(t, nil)
	refClient, err := marketing.NewClient(refURL)
	if err != nil {
		t.Fatal(err)
	}
	refIDs := setupAccount(t, refClient, nAds)
	if err := refClient.DeliverWorkers(context.Background(), refIDs, seed, 2); err != nil {
		t.Fatal(err)
	}
	want := insightsDigest(t, refClient, refIDs)

	// The fleet client retries each call twice (newFleet), so two injected
	// 500s exhaust the finish call entirely and fail the first day attempt
	// after shard 0 has already committed.
	gate := &faultGate{finishFails: 2}
	coord, client := newFleet(t, 2, map[int]func(http.Handler) http.Handler{1: gate.wrap})
	ids := setupAccount(t, client, nAds)
	if err := client.Deliver(context.Background(), ids, seed); err != nil {
		t.Fatal(err)
	}
	if got := insightsDigest(t, client, ids); got != want {
		t.Errorf("post-replay day diverged from reference:\n got %s\nwant %s", got, want)
	}
	if restarts := coord.reg.Snapshot().Counters[MetricDayRestarts]; restarts < 1 {
		t.Errorf("restart counter = %d, want >= 1", restarts)
	}
}

// TestRouterCRUDFanOutAndGuards covers the router's non-delivery surface:
// topology, merged inventory, divergence-free CRUD across shards, appeal
// pass-through, and the deliver-workers guard.
func TestRouterCRUDFanOutAndGuards(t *testing.T) {
	coord, client := newFleet(t, 2, nil)
	ctx := context.Background()
	ids := setupAccount(t, client, 2)

	if got := coord.Shards(); got != 2 {
		t.Fatalf("Shards() = %d", got)
	}
	ad, err := client.GetAd(ctx, ids[0])
	if err != nil || ad.Status != "ACTIVE" {
		t.Fatalf("GetAd via router: %+v, %v", ad, err)
	}
	inv, err := coord.Inventory(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if inv.Ads != 2 || inv.Audiences != 1 || inv.Campaigns != 1 {
		t.Fatalf("merged inventory %+v", inv)
	}
	// Workers guard: explicit worker counts must match the topology.
	if err := client.DeliverWorkers(ctx, ids, 1, 3); err == nil {
		t.Error("workers=3 against a 2-shard fleet: want error")
	}
	if err := client.DeliverWorkers(ctx, ids, 9500, 2); err != nil {
		t.Errorf("workers=2 against a 2-shard fleet: %v", err)
	}
	// Appeal pass-through: appealing an ad that review did not reject is a
	// client error from every shard, surfaced with the backend's own status.
	if _, err := client.AppealAd(ctx, ids[0]); err == nil {
		t.Error("appealing an active ad: want error")
	}
}
