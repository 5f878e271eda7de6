package platform

// Differential tests for the coordinated day session (delivery_session.go)
// and the coordinator-side PacingController: driving N independent platform
// instances — each holding the full world and identical CRUD state, exactly
// like N shard backend processes — through the session protocol must
// reproduce the in-process engines bit for bit. This is the in-process half
// of the cross-process determinism proof; internal/coordinator's e2e test
// carries the same assertion over real HTTP.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"
)

// coordObjects is one backend's copy of the coordinated account state.
type coordObjects struct {
	p   *Platform
	ca  string
	ids []string
}

// runCoordinatedDay drives one delivery day across the given backends the
// way the coordinator does: Begin on every backend (asserting the day plans
// agree), per tick scatter the controller's directives and commit the
// reported spend, then Finish everywhere with the controller's authoritative
// SpendCents.
func runCoordinatedDay(t *testing.T, backends []coordObjects, seed int64) {
	t.Helper()
	shards := len(backends)
	session := fmt.Sprintf("day-%d-%d", seed, shards)
	var init *DayInit
	for shard, b := range backends {
		in, err := b.p.BeginDaySession(session, b.ids, seed, shard, shards)
		if err != nil {
			t.Fatal(err)
		}
		// IDs differ across backends only if CRUD histories diverged; the
		// plan's budgets and starting bids must agree exactly.
		if init == nil {
			init = in
			continue
		}
		if len(in.Ads) != len(init.Ads) || in.Ticks != init.Ticks || in.Greedy != init.Greedy {
			t.Fatalf("shard %d day plan shape diverged: %+v vs %+v", shard, in, init)
		}
		for i := range in.Ads {
			if in.Ads[i].Pacing != init.Ads[i].Pacing || in.Ads[i].DailyBudgetCents != init.Ads[i].DailyBudgetCents {
				t.Fatalf("shard %d ad %d plan diverged: %+v vs %+v", shard, i, in.Ads[i], init.Ads[i])
			}
		}
	}
	ctrl, err := NewPacingController(init, shards)
	if err != nil {
		t.Fatal(err)
	}
	for tick := 0; tick < ctrl.Ticks(); tick++ {
		dirs := ctrl.TickDirectives(tick)
		perShard := make([][]float64, shards)
		for shard, b := range backends {
			rep, err := b.p.DaySessionTick(session, tick, dirs)
			if err != nil {
				t.Fatal(err)
			}
			perShard[shard] = rep.Spent
		}
		if err := ctrl.CommitTick(perShard); err != nil {
			t.Fatal(err)
		}
	}
	cents := ctrl.SpendCents()
	for _, b := range backends {
		if err := b.p.FinishDaySession(session, cents); err != nil {
			t.Fatal(err)
		}
	}
}

// mergedSessionDigest merges per-backend insights the way the router does —
// counts sum (shards own disjoint users), SpendCents must agree to the bit —
// and hashes the result in deliveryDigest's canonical form.
func mergedSessionDigest(t *testing.T, backends []coordObjects) string {
	t.Helper()
	states := make([]AdStatsState, 0, len(backends[0].ids))
	for i := range backends[0].ids {
		var m *AdStats
		for _, b := range backends {
			st, err := b.p.Insights(b.ids[i])
			if err != nil {
				t.Fatal(err)
			}
			if m == nil {
				m = st
				continue
			}
			if st.SpendCents != m.SpendCents {
				t.Fatalf("ad %d spend diverged across shards: %v vs %v", i, st.SpendCents, m.SpendCents)
			}
			m.Impressions += st.Impressions
			m.Reach += st.Reach
			m.Clicks += st.Clicks
			for k, v := range st.Breakdown {
				m.Breakdown[k] += v
			}
			for r, v := range st.RaceOracle {
				m.RaceOracle[r] += v
			}
			for ti, v := range st.HourlySeries {
				m.HourlySeries[ti] += v
			}
		}
		ss := adStatsState(m)
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

// TestDaySessionMatchesInProcessEngines is the central equivalence claim of
// the multi-process design: a coordinated day over N backend platforms is
// byte-identical to RunDayWorkers(workers=N) on a single platform — the
// 1-shard configuration therefore also matches the workers=1 goldens.
func TestDaySessionMatchesInProcessEngines(t *testing.T) {
	f := sharedFixture(t)
	const maxShards = 4
	for _, tc := range diffCases() {
		t.Run(tc.name, func(t *testing.T) {
			ref, err := New(tc.cfg(), f.pop, f.behave)
			if err != nil {
				t.Fatal(err)
			}
			refCA := tc.setup(t, ref, f)
			backends := make([]coordObjects, maxShards)
			for i := range backends {
				p, err := New(tc.cfg(), f.pop, f.behave)
				if err != nil {
					t.Fatal(err)
				}
				backends[i] = coordObjects{p: p, ca: tc.setup(t, p, f)}
			}
			for _, shards := range []int{1, 2, 4} {
				// Fresh identically-specced ad sets per run, on the reference
				// and on every backend, so ID sequences stay aligned and the
				// comparison is independent of allocation history.
				refIDs := createAdSet(t, ref, tc.obj, refCA, tc.specs)
				if err := ref.RunDayWorkers(refIDs, tc.runSeed, shards); err != nil {
					t.Fatal(err)
				}
				want := deliveryDigest(t, ref, refIDs)
				if shards == 1 && want != tc.golden {
					t.Fatalf("reference workers=1 digest %s does not match golden %s", want, tc.golden)
				}
				for i := range backends {
					backends[i].ids = createAdSet(t, backends[i].p, tc.obj, backends[i].ca, tc.specs)
				}
				from := backends[0].p.ServedLogSize()
				runCoordinatedDay(t, backends[:shards], tc.runSeed)
				if got := mergedSessionDigest(t, backends[:shards]); got != want {
					t.Errorf("coordinated %d-shard day diverged from RunDayWorkers(workers=%d):\n got %s\nwant %s", shards, shards, got, want)
				}
				if shards == 1 {
					if got := servedDigest(t, backends[0].p, backends[0].ids, from); got != tc.served[1] {
						t.Errorf("coordinated 1-shard served log diverged from golden:\n got %s\nwant %s", got, tc.served[1])
					}
				}
			}
		})
	}
}

// TestDaySessionProtocol covers the session lifecycle rules: tick replay,
// ordering, engine exclusion, abort, and replacement.
func TestDaySessionProtocol(t *testing.T) {
	f := sharedFixture(t)
	tc := diffCases()[0]
	p, err := New(tc.cfg(), f.pop, f.behave)
	if err != nil {
		t.Fatal(err)
	}
	caID := tc.setup(t, p, f)
	ids := createAdSet(t, p, tc.obj, caID, tc.specs)

	init, err := p.BeginDaySession("s1", ids, tc.runSeed, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := NewPacingController(init, 2)
	if err != nil {
		t.Fatal(err)
	}
	dirs := ctrl.TickDirectives(0)

	if err := p.RunDayWorkers(ids, tc.runSeed, 1); err == nil {
		t.Fatal("RunDayWorkers succeeded during an active session")
	}
	if _, err := p.DaySessionTick("other", 0, dirs); !errors.Is(err, ErrSessionConflict) {
		t.Fatalf("foreign session tick: got %v, want ErrSessionConflict", err)
	}
	if _, err := p.DaySessionTick("s1", 3, dirs); !errors.Is(err, ErrSessionConflict) {
		t.Fatalf("out-of-order tick: got %v, want ErrSessionConflict", err)
	}
	rep, err := p.DaySessionTick("s1", 0, dirs)
	if err != nil {
		t.Fatal(err)
	}
	replay, err := p.DaySessionTick("s1", 0, dirs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep, replay) {
		t.Fatalf("tick replay diverged: %+v vs %+v", replay, rep)
	}
	if err := p.FinishDaySession("s1", ctrl.SpendCents()); !errors.Is(err, ErrSessionConflict) {
		t.Fatalf("early finish: got %v, want ErrSessionConflict", err)
	}
	if err := p.AbortDaySession("other"); !errors.Is(err, ErrSessionConflict) {
		t.Fatalf("foreign abort: got %v, want ErrSessionConflict", err)
	}
	if err := p.AbortDaySession("s1"); err != nil {
		t.Fatal(err)
	}
	if err := p.AbortDaySession("s1"); err != nil {
		t.Fatalf("abort is not idempotent: %v", err)
	}

	// Begin replaces a stale session, and the abandoned day leaves no trace:
	// the replacement run still matches the engine.
	if _, err := p.BeginDaySession("stale", ids, tc.runSeed, 0, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := p.BeginDaySession("s2", ids, tc.runSeed, 0, 1); err != nil {
		t.Fatal(err)
	}
	if err := p.AbortDaySession("s2"); err != nil {
		t.Fatal(err)
	}
	if err := p.RunDayWorkers(ids, tc.runSeed, 1); err != nil {
		t.Fatal(err)
	}
	if got := deliveryDigest(t, p, ids); got != tc.golden {
		t.Errorf("post-abort engine run diverged from golden:\n got %s\nwant %s", got, tc.golden)
	}
}

// TestSpendValidationAtWireBoundaries feeds the two spend values that cross
// the wire — shard tick reports into PacingController.CommitTick and the
// coordinator's totals into FinishDaySession — honest and corrupted inputs.
// A rejected value must leave the controller or session untouched.
func TestSpendValidationAtWireBoundaries(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	plan := &DayInit{Ticks: 4, Ads: []DayAdPlan{
		{AdID: "a", DailyBudgetCents: 1000, Pacing: 1},
		{AdID: "b", DailyBudgetCents: 500, Pacing: 1},
	}}
	// Every controller first commits one honest tick to reach committed
	// spend {3, 1} (dollars), then commits the row's report.
	commits := []struct {
		name    string
		shards  int
		report  [][]float64
		wantErr bool
	}{
		{"one_shard_honest", 1, [][]float64{{4, 1}}, false},
		{"one_shard_exactly_budget", 1, [][]float64{{10, 5}}, false},
		{"one_shard_nan", 1, [][]float64{{nan, 1}}, true},
		{"one_shard_inf", 1, [][]float64{{4, inf}}, true},
		{"one_shard_negative", 1, [][]float64{{-1, 1}}, true},
		{"one_shard_below_committed", 1, [][]float64{{2.5, 1}}, true},
		{"one_shard_above_budget", 1, [][]float64{{10.01, 1}}, true},
		{"two_shard_honest", 2, [][]float64{{1, 0}, {0.5, 0.25}}, false},
		// Tick deltas above the remaining budget are honest: the commit
		// clamp absorbs the overrun of the last winning price per shard.
		{"two_shard_overrun_clamped", 2, [][]float64{{20, 0}, {0, 9}}, false},
		{"two_shard_nan", 2, [][]float64{{0, 0}, {nan, 0}}, true},
		{"two_shard_neg_inf", 2, [][]float64{{0, math.Inf(-1)}, {0, 0}}, true},
		{"two_shard_negative", 2, [][]float64{{0, 0}, {0, -0.5}}, true},
	}
	for _, tc := range commits {
		t.Run("commit/"+tc.name, func(t *testing.T) {
			ctrl, err := NewPacingController(plan, tc.shards)
			if err != nil {
				t.Fatal(err)
			}
			first := [][]float64{{3, 1}}
			if tc.shards == 2 {
				first = [][]float64{{2, 0.5}, {1, 0.5}}
			}
			ctrl.TickDirectives(0)
			if err := ctrl.CommitTick(first); err != nil {
				t.Fatalf("honest first tick rejected: %v", err)
			}
			before := ctrl.SpendCents()
			ctrl.TickDirectives(1)
			err = ctrl.CommitTick(tc.report)
			if (err != nil) != tc.wantErr {
				t.Fatalf("CommitTick(%v) error = %v, want error %v", tc.report, err, tc.wantErr)
			}
			after := ctrl.SpendCents()
			if tc.wantErr && !reflect.DeepEqual(after, before) {
				t.Errorf("rejected report moved committed spend: %v -> %v", before, after)
			}
			for i, c := range after {
				if c < 0 || c > float64(plan.Ads[i].DailyBudgetCents) {
					t.Errorf("ad %d committed %v¢ outside [0, %d]", i, c, plan.Ads[i].DailyBudgetCents)
				}
			}
		})
	}

	f := sharedFixture(t)
	tc := diffCases()[0]
	p, err := New(tc.cfg(), f.pop, f.behave)
	if err != nil {
		t.Fatal(err)
	}
	ids := createAdSet(t, p, tc.obj, tc.setup(t, p, f), tc.specs)
	init, err := p.BeginDaySession("v", ids, tc.runSeed, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := NewPacingController(init, 1)
	if err != nil {
		t.Fatal(err)
	}
	for tick := 0; tick < ctrl.Ticks(); tick++ {
		rep, err := p.DaySessionTick("v", tick, ctrl.TickDirectives(tick))
		if err != nil {
			t.Fatal(err)
		}
		if err := ctrl.CommitTick([][]float64{rep.Spent}); err != nil {
			t.Fatal(err)
		}
	}
	budget := float64(tc.specs[0].budget)
	for _, bad := range [][]float64{{nan, 0}, {inf, 0}, {-1, 0}, {0, budget + 1}} {
		err := p.FinishDaySession("v", bad)
		if err == nil || errors.Is(err, ErrSessionConflict) {
			t.Fatalf("FinishDaySession(%v): got %v, want a validation error", bad, err)
		}
	}
	if !p.SessionActive() {
		t.Fatal("rejected finish closed the session")
	}
	if err := p.FinishDaySession("v", ctrl.SpendCents()); err != nil {
		t.Fatalf("honest finish after rejections: %v", err)
	}
}
