package platform

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"

	"github.com/adaudit/impliedidentity/internal/demo"
	"github.com/adaudit/impliedidentity/internal/population"
	"github.com/adaudit/impliedidentity/internal/voter"
)

// resolveOracle is the map-based audience resolution resolveAudience
// replaced: hash-set union of the custom audiences, attribute filter, then
// sort.Ints for a deterministic order.
func resolveOracle(p *Platform, t *Targeting) []int {
	inUnion := map[int]bool{}
	for _, id := range t.CustomAudienceIDs {
		for _, idx := range p.audiences[id].members {
			inUnion[idx] = true
		}
	}
	var out []int
	for idx := range inUnion {
		if t.matchesUser(p.pop.View(idx)) {
			out = append(out, idx)
		}
	}
	sort.Ints(out)
	return out
}

func TestResolveAudienceMatchesMapOracle(t *testing.T) {
	p, _ := newTestPlatform(t, 105)
	n := p.NumUsers()
	rng := rand.New(rand.NewSource(78))
	// Word-boundary and end-of-population indexes go into every union.
	edges := []int{0, 63, 64, n - 1}
	genders := []demo.Gender{demo.GenderFemale, demo.GenderMale}
	states := []demo.State{demo.StateFL, demo.StateNC}

	p.mu.Lock()
	defer p.mu.Unlock()
	for trial := 0; trial < 40; trial++ {
		var ids []string
		for k := 0; k < 1+rng.Intn(4); k++ {
			id := fmt.Sprintf("ca-oracle-%d-%d", trial, k)
			// Upload order, with overlaps across audiences and the
			// occasional repeat inside one.
			members := slices.Clone(edges)
			for j := rng.Intn(3000); j > 0; j-- {
				members = append(members, rng.Intn(n))
			}
			if k > 0 && rng.Intn(2) == 0 {
				members = append(members, p.audiences[ids[0]].members[:200]...)
			}
			rng.Shuffle(len(members), func(a, b int) { members[a], members[b] = members[b], members[a] })
			p.audiences[id] = &CustomAudience{ID: id, Size: len(members), members: members}
			ids = append(ids, id)
		}
		if rng.Intn(3) == 0 {
			ids = append(ids, ids[0]) // the same audience listed twice
		}
		tg := Targeting{CustomAudienceIDs: ids}
		switch rng.Intn(4) {
		case 1:
			tg.AgeMin, tg.AgeMax = 25+rng.Intn(10), 50+rng.Intn(20)
		case 2:
			tg.Genders = genders[rng.Intn(2):][:1]
			tg.States = states[rng.Intn(2):][:1]
		case 3:
			tg.AgeMin, tg.Genders = 40, genders
		}
		want := resolveOracle(p, &tg)
		got, err := p.resolveAudience(&tg)
		if len(want) == 0 {
			if err == nil {
				t.Fatalf("trial %d: oracle matched no users, resolveAudience returned %d and no error", trial, len(got))
			}
			continue
		}
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d (%+v): %d users, oracle %d; first divergence at %d",
				trial, tg, len(got), len(want), firstDiff(got, want))
		}
	}
}

func TestResolveAudienceNoMatch(t *testing.T) {
	p, _ := newTestPlatform(t, 105)
	p.mu.Lock()
	defer p.mu.Unlock()
	p.audiences["ca-edge"] = &CustomAudience{ID: "ca-edge", members: []int{0, 63, 64, p.NumUsers() - 1}}
	tg := Targeting{CustomAudienceIDs: []string{"ca-edge"}, AgeMin: 200}
	if got, err := p.resolveAudience(&tg); err == nil {
		t.Fatalf("targeting nobody: got %v, want error", got)
	}
	tg = Targeting{CustomAudienceIDs: []string{"ca-edge", "ca-missing"}}
	if _, err := p.resolveAudience(&tg); err == nil {
		t.Fatal("unknown custom audience: want error")
	}
}

// firstDiff returns the first position where a and b differ.
func firstDiff(a, b []int) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

// The layer benchmarks run at the scale of the paper's Campaign 1 on the
// full-scale world: 200 ads, 100 on each of two race-split custom audiences
// of about 24,000 users, over the population of two 120,000-voter
// registries.
const (
	auditScaleVoters = 120000
	auditScaleAds    = 200
)

// splitAudiences draws the two custom audiences' members from [0, n) in
// upload order: disjoint, about 24,000 users each.
func splitAudiences(rng *rand.Rand, n int) [2][]int {
	var auds [2][]int
	for i, idx := range rng.Perm(n)[:48000] {
		auds[i%2] = append(auds[i%2], idx)
	}
	return auds
}

// auditScalePopulation builds the full-scale world's population once per
// test binary.
var auditScalePopulation = sync.OnceValues(func() (*population.Population, error) {
	var regs []*voter.Registry
	for i, st := range []demo.State{demo.StateFL, demo.StateNC} {
		cfg := voter.DefaultGeneratorConfig(st, 201+int64(i))
		cfg.NumVoters = auditScaleVoters
		reg, err := voter.Generate(cfg)
		if err != nil {
			return nil, err
		}
		regs = append(regs, reg)
	}
	return population.Build(population.Config{Seed: 203}, regs...)
})

func BenchmarkResolveAudience(b *testing.B) {
	pop, err := auditScalePopulation()
	if err != nil {
		b.Fatal(err)
	}
	auds := splitAudiences(rand.New(rand.NewSource(79)), pop.Len())
	// resolveAudience reads only the population and the audiences.
	p := &Platform{pop: pop, audiences: map[string]*CustomAudience{
		"ca-primary":  {ID: "ca-primary", members: auds[0]},
		"ca-reversed": {ID: "ca-reversed", members: auds[1]},
	}}
	targets := [2]Targeting{
		{CustomAudienceIDs: []string{"ca-primary"}},
		{CustomAudienceIDs: []string{"ca-reversed"}},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for a := 0; a < auditScaleAds; a++ {
			if _, err := p.resolveAudience(&targets[a%2]); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkBuildEligIndex(b *testing.B) {
	pop, err := auditScalePopulation()
	if err != nil {
		b.Fatal(err)
	}
	auds := splitAudiences(rand.New(rand.NewSource(80)), pop.Len())
	for i := range auds {
		slices.Sort(auds[i]) // CreateAd stores audiences ascending
	}
	active := make([]*Ad, auditScaleAds)
	for i := range active {
		active[i] = &Ad{audience: auds[i%2]}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buildEligIndex(active)
	}
}
