package platform

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
// slice order). Population indexes are dense in [0, pop.Len()), so it counts
// degrees in a dense array over [0, max index] instead of sorting: walking
// that array in index order emits users ascending and the row offsets as
// prefix sums, and the same array then serves as each user's fill cursor.
// O(entries + span), no sort or search; it consumes no randomness and
// allocates the three CSR slices plus the transient degree array.
func buildEligIndex(active []*Ad) *eligIndex {
	total, span := 0, 0
	for _, ad := range active {
		total += len(ad.audience)
		for _, idx := range ad.audience {
			span = max(span, idx+1)
		}
	}
	deg := make([]int32, span)
	rows := 0
	for _, ad := range active {
		for _, idx := range ad.audience {
			if deg[idx] == 0 {
				rows++
			}
			deg[idx]++
		}
	}

	e := &eligIndex{
		users:   make([]int32, rows),
		offsets: make([]int32, rows+1),
		ads:     make([]int32, total),
	}
	// Index-order walk: rows come out ascending; deg[idx] becomes the
	// user's row start, the fill cursor for the run-order pass below.
	var r, off int32
	for idx, d := range deg {
		if d == 0 {
			continue
		}
		e.users[r] = int32(idx)
		e.offsets[r] = off
		deg[idx] = off
		off += d
		r++
	}
	e.offsets[rows] = off
	// Run-order fill: each row's ad list comes out in active-slice order
	// because the outer loop visits ads in run order.
	for i, ad := range active {
		for _, idx := range ad.audience {
			e.ads[deg[idx]] = int32(i)
			deg[idx]++
		}
	}
	return e
}

// rows returns the number of targeted users.
func (e *eligIndex) rows() int { return len(e.users) }

// adsFor returns row pos's eligible ads as run indexes, in run order.
func (e *eligIndex) adsFor(pos int32) []int32 {
	return e.ads[e.offsets[pos]:e.offsets[pos+1]]
}
