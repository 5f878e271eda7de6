package platform

import (
	"fmt"
	"math/bits"

	"github.com/adaudit/impliedidentity/internal/population"
)

// CustomAudience is a PII-matched user list (§2.1: "the advertiser can
// provide the platform with the list of personally identifiable
// information… thereby specifying precisely who is in the target audience").
// The platform only ever reports the matched size, never which users
// matched.
type CustomAudience struct {
	ID      string
	Name    string
	Size    int   // matched accounts
	members []int // population indexes; internal, never exposed via the API
}

// UploadRecord is one row of an audience upload: the advertiser-side PII,
// hashed client-side before transmission as real platforms require.
type UploadRecord struct {
	FirstName string
	LastName  string
	Address   string
	ZIP       string
}

// Hash returns the normalized PII hash for the row.
func (r UploadRecord) Hash() string {
	return population.HashPII(r.FirstName, r.LastName, r.Address, r.ZIP)
}

// CreateCustomAudience matches a list of PII hashes against the user base
// and registers the audience. Duplicate hashes are tolerated (matched once).
func (p *Platform) CreateCustomAudience(name string, piiHashes []string) (*CustomAudience, error) {
	if name == "" {
		return nil, fmt.Errorf("platform: custom audience needs a name")
	}
	if len(piiHashes) == 0 {
		return nil, fmt.Errorf("platform: custom audience %q: empty upload", name)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	ca := &CustomAudience{
		ID:   fmt.Sprintf("ca-%d", len(p.audiences)+1),
		Name: name,
	}
	seen := map[int]bool{}
	for _, h := range piiHashes {
		u, ok := p.pop.LookupPII(h)
		if !ok || seen[u.ID()] {
			continue
		}
		seen[u.ID()] = true
		ca.members = append(ca.members, u.ID())
	}
	ca.Size = len(ca.members)
	p.audiences[ca.ID] = ca
	p.emit(Mutation{Kind: MutAudienceCreated, Audience: audienceState(ca)})
	return ca, nil
}

// Audience returns a registered audience by ID. Audiences are immutable
// after creation, so the shared pointer is safe to read without the lock.
func (p *Platform) Audience(id string) (*CustomAudience, error) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.audienceLocked(id)
}

// audienceLocked looks up an audience; the caller holds p.mu.
func (p *Platform) audienceLocked(id string) (*CustomAudience, error) {
	ca, ok := p.audiences[id]
	if !ok {
		return nil, fmt.Errorf("platform: unknown custom audience %q", id)
	}
	return ca, nil
}

// resolveAudience computes the final targeted user set for an ad: the union
// of its Custom Audiences filtered by the attribute limits, as ascending
// population indexes (the order downstream seeded RNG consumption depends
// on). The union is marked in a bitset over the population and read back
// in index order, so it comes out deduplicated and ascending in linear
// time with no sort or hash set; a popcount sizes the result up front.
// The caller holds p.mu.
func (p *Platform) resolveAudience(t *Targeting) ([]int, error) {
	union := make([]uint64, (p.pop.Len()+63)/64)
	for _, id := range t.CustomAudienceIDs {
		ca, err := p.audienceLocked(id)
		if err != nil {
			return nil, err
		}
		for _, idx := range ca.members {
			union[idx>>6] |= 1 << (idx & 63)
		}
	}
	size := 0
	for _, word := range union {
		size += bits.OnesCount64(word)
	}
	out := make([]int, 0, size)
	for w, word := range union {
		for word != 0 {
			idx := w<<6 + bits.TrailingZeros64(word)
			word &= word - 1
			if t.matchesUser(p.pop.View(idx)) {
				out = append(out, idx)
			}
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("platform: targeting matches no users")
	}
	return out, nil
}
