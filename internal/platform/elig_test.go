package platform

import (
	"math/rand"
	"sort"
	"testing"
)

// eligAds builds a throwaway active-ad slice with the given audiences; only
// the fields buildEligIndex reads (audience, and implicitly run order) are
// populated.
func eligAds(audiences ...[]int) []*Ad {
	ads := make([]*Ad, len(audiences))
	for i, a := range audiences {
		ads[i] = &Ad{audience: a}
	}
	return ads
}

// mapOracle reproduces the pre-CSR index: the adsByUser map in run-append
// order with sorted keys — the exact iteration semantics the delivery RNG
// draw order depends on.
func mapOracle(active []*Ad) (map[int][]int, []int) {
	adsByUser := map[int][]int{}
	for i, ad := range active {
		for _, idx := range ad.audience {
			adsByUser[idx] = append(adsByUser[idx], i)
		}
	}
	users := make([]int, 0, len(adsByUser))
	for idx := range adsByUser {
		users = append(users, idx)
	}
	sort.Ints(users)
	return adsByUser, users
}

// assertMatchesOracle checks the CSR index against the sorted-map oracle:
// identical user sequence, and identical per-user ad list in run order.
func assertMatchesOracle(t *testing.T, active []*Ad) {
	t.Helper()
	e := buildEligIndex(active)
	adsByUser, users := mapOracle(active)
	if e.rows() != len(users) {
		t.Fatalf("rows %d, oracle %d", e.rows(), len(users))
	}
	for pos, idx := range users {
		if int(e.users[pos]) != idx {
			t.Fatalf("row %d holds user %d, oracle %d", pos, e.users[pos], idx)
		}
		got := e.adsFor(int32(pos))
		want := adsByUser[idx]
		if len(got) != len(want) {
			t.Fatalf("user %d has %d ads, oracle %d", idx, len(got), len(want))
		}
		for k := range want {
			if int(got[k]) != want[k] {
				t.Fatalf("user %d ad %d: run index %d, oracle %d", idx, k, got[k], want[k])
			}
		}
	}
}

func TestEligIndexMatchesSortedMapOracle(t *testing.T) {
	cases := map[string][]*Ad{
		"single_user":     eligAds([]int{7}),
		"single_ad":       eligAds([]int{3, 9, 1, 40}),
		"disjoint":        eligAds([]int{0, 2, 4}, []int{1, 3, 5}),
		"overlapping":     eligAds([]int{5, 1, 9}, []int{9, 5, 100}, []int{1}),
		"all_users_both":  eligAds([]int{0, 1, 2, 3}, []int{0, 1, 2, 3}),
		"one_empty":       eligAds([]int{4, 8}, nil, []int{8}),
		"gapped_indexes":  eligAds([]int{1000000, 5}, []int{500000}),
		"duplicated_sets": eligAds([]int{2, 4}, []int{2, 4}, []int{2, 4}, []int{4}),
	}
	for name, active := range cases {
		t.Run(name, func(t *testing.T) { assertMatchesOracle(t, active) })
	}
}

func TestEligIndexEmptyAudiences(t *testing.T) {
	e := buildEligIndex(eligAds(nil, nil))
	if e.rows() != 0 {
		t.Fatalf("all-empty audiences: %d rows, want 0", e.rows())
	}
	if len(e.offsets) != 1 || e.offsets[0] != 0 {
		t.Fatalf("offsets %v, want [0]", e.offsets)
	}
}

func TestEligIndexRandomizedAgainstOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 50; trial++ {
		nAds := 1 + rng.Intn(6)
		audiences := make([][]int, nAds)
		for i := range audiences {
			n := rng.Intn(40)
			seen := map[int]bool{}
			for len(seen) < n {
				seen[rng.Intn(200)] = true
			}
			// Audiences arrive ascending in production (resolveAudience emits
			// indexes in order); the oracle comparison is order-sensitive, so
			// mirror that.
			for idx := range seen {
				audiences[i] = append(audiences[i], idx)
			}
			sort.Ints(audiences[i])
		}
		assertMatchesOracle(t, eligAds(audiences...))
	}
}
