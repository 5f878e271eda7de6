package platform

import (
	"encoding/json"
	"testing"

	"github.com/adaudit/impliedidentity/internal/image"
)

// stateJSON renders the account state canonically for comparison.
func stateJSON(t *testing.T, p *Platform) string {
	t.Helper()
	b, err := json.Marshal(p.State())
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// buildAccount drives one platform through every durable mutation kind:
// audience upload, campaign, active ads, a forced rejection + appeal, and a
// delivered day. Returns the IDs of the delivered ads.
func buildAccount(t *testing.T, p *Platform, f *fixture) []string {
	t.Helper()
	caID := uploadBalancedAudience(t, p, f, 20, 31)
	cmp, err := p.CreateCampaign("round-trip", ObjectiveTraffic, SpecialNone, 2019)
	if err != nil {
		t.Fatal(err)
	}
	targeting := Targeting{CustomAudienceIDs: []string{caID}}
	imgA := image.Features{HasPerson: true, GenderAxis: 0.9, RaceAxis: -0.9, AgeYears: 30}
	imgB := image.Features{HasPerson: true, GenderAxis: -0.9, RaceAxis: 0.9, AgeYears: 55}
	adA, err := p.CreateAd(cmp.ID, Creative{Image: imgA, Headline: "h"}, targeting, 300)
	if err != nil {
		t.Fatal(err)
	}
	adB, err := p.CreateAd(cmp.ID, Creative{Image: imgB, Headline: "h"}, targeting, 300)
	if err != nil {
		t.Fatal(err)
	}
	// Force one rejection and appeal it back to active, so the appeal
	// mutation is exercised too.
	if err := p.SetReviewRejectProb(1); err != nil {
		t.Fatal(err)
	}
	adC, err := p.CreateAd(cmp.ID, Creative{Image: imgA, Headline: "h"}, targeting, 100)
	if err != nil {
		t.Fatal(err)
	}
	if adC.Status != StatusRejected {
		t.Fatalf("ad with reject prob 1: status %v", adC.Status)
	}
	if err := p.SetReviewRejectProb(0); err != nil {
		t.Fatal(err)
	}
	if _, err := p.AppealAd(adC.ID); err != nil {
		t.Fatal(err)
	}
	if err := p.RunDay([]string{adA.ID, adB.ID}, 999); err != nil {
		t.Fatal(err)
	}
	return []string{adA.ID, adB.ID}
}

func TestStateRoundTrip(t *testing.T) {
	p1, f := newTestPlatform(t, 104)
	var muts []Mutation
	p1.SetMutationHook(func(m Mutation) { muts = append(muts, m) })
	delivered := buildAccount(t, p1, f)
	want := stateJSON(t, p1)

	// Serialize through JSON (the store's wire format) and restore into a
	// fresh platform built from the same world.
	var decoded State
	if err := json.Unmarshal([]byte(want), &decoded); err != nil {
		t.Fatal(err)
	}
	p2, _ := newTestPlatform(t, 104)
	if err := p2.Restore(&decoded); err != nil {
		t.Fatal(err)
	}
	if got := stateJSON(t, p2); got != want {
		t.Fatalf("state diverged after Restore:\n got %.200s…\nwant %.200s…", got, want)
	}
	// Restored insights are queryable and identical.
	for _, id := range delivered {
		s1, err1 := p1.Insights(id)
		s2, err2 := p2.Insights(id)
		if err1 != nil || err2 != nil {
			t.Fatalf("insights after restore: %v / %v", err1, err2)
		}
		if s1.Impressions != s2.Impressions || s1.Reach != s2.Reach || s1.SpendCents != s2.SpendCents {
			t.Fatalf("ad %s: restored insights differ: %+v vs %+v", id, s1, s2)
		}
	}

	// The emitted mutation log replays to the same state, and replaying it
	// twice converges (idempotence — recovery replays WAL tails that overlap
	// the snapshot).
	if len(muts) != 7 {
		t.Fatalf("captured %d mutations, want 7 (audience, campaign, 3 ads, appeal, delivery)", len(muts))
	}
	p3, _ := newTestPlatform(t, 104)
	for round := 0; round < 2; round++ {
		for i := range muts {
			if err := p3.ApplyMutation(&muts[i]); err != nil {
				t.Fatalf("round %d mutation %d (%s): %v", round, i, muts[i].Kind, err)
			}
		}
		if got := stateJSON(t, p3); got != want {
			t.Fatalf("round %d: replayed state diverged", round)
		}
	}
}

func TestRestoreRejectsVersionMismatch(t *testing.T) {
	p, _ := newTestPlatform(t, 104)
	if err := p.Restore(&State{Version: StateVersion + 1}); err == nil {
		t.Fatal("future state version: want error")
	}
	if err := p.Restore(nil); err == nil {
		t.Fatal("nil state: want error")
	}
}

func TestApplyMutationRejectsForeignWorld(t *testing.T) {
	p, _ := newTestPlatform(t, 104)
	m := Mutation{Kind: MutAudienceCreated, Audience: &AudienceState{
		ID: "ca-1", Name: "alien", Size: 1, Members: []int{p.NumUsers() + 5},
	}}
	if err := p.ApplyMutation(&m); err == nil {
		t.Fatal("audience index outside population: want error")
	}
	if _, err := p.Audience("ca-1"); err == nil {
		t.Fatal("failed mutation must not install the audience")
	}
}

func TestApplyMutationRejectsUnorderedAdAudience(t *testing.T) {
	p, _ := newTestPlatform(t, 104)
	cases := map[string][]int{
		"unsorted":          {3, 9, 5},
		"duplicated":        {3, 5, 5, 9},
		"duplicated_first":  {4, 4},
		"descending_at_end": {0, 1, 2, 1},
	}
	for name, audience := range cases {
		t.Run(name, func(t *testing.T) {
			id := "ad-" + name
			m := Mutation{Kind: MutAdCreated, Ad: &AdState{ID: id, Status: StatusActive, Audience: audience}}
			if err := p.ApplyMutation(&m); err == nil {
				t.Fatalf("audience %v: want error", audience)
			}
			if _, err := p.Ad(id); err == nil {
				t.Fatal("failed mutation must not install the ad")
			}
		})
	}
	ok := Mutation{Kind: MutAdCreated, Ad: &AdState{ID: "ad-ascending", Status: StatusActive, Audience: []int{0, 3, 5, 9}}}
	if err := p.ApplyMutation(&ok); err != nil {
		t.Fatalf("strictly ascending audience: %v", err)
	}
}
