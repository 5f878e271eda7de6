package platform

import "slices"

// eligIndex is a delivery day's eligibility index in CSR form: for every
// user targeted by at least one active ad, the run-order list of ads that
// may bid on their slots. It replaces the old adsByUser map[int][]*Ad —
// three flat int32 slices instead of a hash table with one heap-allocated
// pointer slice per user, built once per day by prepareDay.
//
// Layout contract, pinned by the CSR regression tests against the old
// sorted-map semantics:
//   - users holds the targeted population rows in ascending order (the old
//     sorted-keys order the per-tick shuffles start from);
//   - row r's eligible ads are ads[offsets[r]:offsets[r+1]], as run indexes
//     into the active slice, in run order (the old append order).
//
// Day loops address users by *row position* in this index, not by
// population index; position is what the shuffles permute and what the
// round-robin shard and session partitions slice.
type eligIndex struct {
	users   []int32
	offsets []int32 // len(users)+1
	ads     []int32
}

// buildEligIndex constructs the index for the run's active ads (run order =
// slice order). It consumes no randomness and allocates only the three CSR
// slices plus one transient per-row cursor.
func buildEligIndex(active []*Ad) *eligIndex {
	total := 0
	for _, ad := range active {
		total += len(ad.audience)
	}
	all := make([]int32, 0, total)
	for _, ad := range active {
		for _, idx := range ad.audience {
			all = append(all, int32(idx))
		}
	}
	slices.Sort(all)
	users := slices.Compact(all)

	e := &eligIndex{
		users:   users,
		offsets: make([]int32, len(users)+1),
		ads:     make([]int32, total),
	}
	// Degree count, prefix sums, then a run-order fill with per-row
	// cursors: each row's ad list comes out in active-slice order because
	// the outer loop visits ads in run order.
	deg := make([]int32, len(users))
	for _, ad := range active {
		for _, idx := range ad.audience {
			deg[e.rowOf(int32(idx))]++
		}
	}
	var off int32
	for r, d := range deg {
		e.offsets[r] = off
		off += d
	}
	e.offsets[len(users)] = off
	next := deg[:0] // reuse: deg is dead after the prefix sum
	next = append(next, e.offsets[:len(users)]...)
	for i, ad := range active {
		for _, idx := range ad.audience {
			r := e.rowOf(int32(idx))
			e.ads[next[r]] = int32(i)
			next[r]++
		}
	}
	return e
}

// rows returns the number of targeted users.
func (e *eligIndex) rows() int { return len(e.users) }

// rowOf returns the row position of a population index; the index must be
// present.
func (e *eligIndex) rowOf(user int32) int32 {
	pos, _ := slices.BinarySearch(e.users, user)
	return int32(pos)
}

// adsFor returns row pos's eligible ads as run indexes, in run order.
func (e *eligIndex) adsFor(pos int32) []int32 {
	return e.ads[e.offsets[pos]:e.offsets[pos+1]]
}
