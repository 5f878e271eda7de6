// Package marketing exposes the simulated platform through an HTTP JSON API
// shaped like an advertiser-facing marketing API, plus a Go client. The
// audit code drives the platform exclusively through this interface — the
// paper's methodology is defined by what an advertiser can see (campaign
// CRUD, audience uploads, delivery breakdowns) and cannot see (user
// identities, the delivery model), and routing everything through the API
// keeps the reproduction honest about that boundary.
package marketing

import (
	"fmt"

	"github.com/adaudit/impliedidentity/internal/demo"
	"github.com/adaudit/impliedidentity/internal/image"
	"github.com/adaudit/impliedidentity/internal/platform"
)

// CreateAudienceRequest uploads a PII-hash list for matching.
type CreateAudienceRequest struct {
	Name      string   `json:"name"`
	PIIHashes []string `json:"pii_hashes"`
}

// CreateAudienceResponse reports the matched audience.
type CreateAudienceResponse struct {
	ID          string `json:"id"`
	MatchedSize int    `json:"matched_size"`
}

// CreateCampaignRequest creates a campaign.
type CreateCampaignRequest struct {
	Name              string `json:"name"`
	Objective         string `json:"objective"`
	SpecialAdCategory string `json:"special_ad_category,omitempty"`
	AccountAge        int    `json:"account_age,omitempty"`
}

// CreateCampaignResponse reports the new campaign ID.
type CreateCampaignResponse struct {
	ID string `json:"id"`
}

// WireImage is the JSON form of an ad image. It carries the feature-space
// representation (the reproduction's stand-in for uploading image bytes).
type WireImage struct {
	HasPerson  bool      `json:"has_person"`
	GenderAxis float64   `json:"gender_axis"`
	RaceAxis   float64   `json:"race_axis"`
	AgeYears   float64   `json:"age_years"`
	Nuisance   []float64 `json:"nuisance"`
	Job        string    `json:"job,omitempty"`
}

// ToFeatures converts the wire form, validating the nuisance length.
func (w *WireImage) ToFeatures() (image.Features, error) {
	f := image.Features{
		HasPerson:  w.HasPerson,
		GenderAxis: w.GenderAxis,
		RaceAxis:   w.RaceAxis,
		AgeYears:   w.AgeYears,
		Job:        w.Job,
	}
	if len(w.Nuisance) != 0 && len(w.Nuisance) != image.NumNuisance {
		return image.Features{}, fmt.Errorf("marketing: nuisance vector length %d, want %d", len(w.Nuisance), image.NumNuisance)
	}
	copy(f.Nuisance[:], w.Nuisance)
	return f, nil
}

// WireImageFrom converts features to the wire form.
func WireImageFrom(f image.Features) WireImage {
	return WireImage{
		HasPerson:  f.HasPerson,
		GenderAxis: f.GenderAxis,
		RaceAxis:   f.RaceAxis,
		AgeYears:   f.AgeYears,
		Nuisance:   append([]float64(nil), f.Nuisance[:]...),
		Job:        f.Job,
	}
}

// WireCreative is the JSON form of an ad creative.
type WireCreative struct {
	Image    WireImage `json:"image"`
	Headline string    `json:"headline"`
	Body     string    `json:"body"`
	LinkURL  string    `json:"link_url"`
}

// WireTargeting is the JSON form of a targeting spec.
type WireTargeting struct {
	CustomAudienceIDs []string `json:"custom_audience_ids"`
	AgeMin            int      `json:"age_min,omitempty"`
	AgeMax            int      `json:"age_max,omitempty"`
	Genders           []string `json:"genders,omitempty"`
	States            []string `json:"states,omitempty"`
}

// ToTargeting converts the wire form.
func (w *WireTargeting) ToTargeting() (platform.Targeting, error) {
	t := platform.Targeting{
		CustomAudienceIDs: w.CustomAudienceIDs,
		AgeMin:            w.AgeMin,
		AgeMax:            w.AgeMax,
	}
	for _, g := range w.Genders {
		pg, err := demo.ParseGender(g)
		if err != nil {
			return platform.Targeting{}, err
		}
		t.Genders = append(t.Genders, pg)
	}
	for _, s := range w.States {
		ps, err := demo.ParseState(s)
		if err != nil {
			return platform.Targeting{}, err
		}
		t.States = append(t.States, ps)
	}
	return t, nil
}

// CreateAdRequest creates one ad.
type CreateAdRequest struct {
	CampaignID       string        `json:"campaign_id"`
	Creative         WireCreative  `json:"creative"`
	Targeting        WireTargeting `json:"targeting"`
	DailyBudgetCents int           `json:"daily_budget_cents"`
}

// AdResponse reports an ad's identity and review status.
type AdResponse struct {
	ID     string `json:"id"`
	Status string `json:"status"`
}

// DeliverRequest advances the simulated clock: it runs the listed ads for
// one 24-hour window. This is the reproduction's substitute for waiting a
// real day.
type DeliverRequest struct {
	AdIDs []string `json:"ad_ids"`
	Seed  int64    `json:"seed"`
	// Workers selects the delivery engine's shard count. 0 (the default,
	// and what older clients send) defers to the server's configured
	// default; 1 runs a single shard. Delivery output is
	// deterministic for a fixed (seed, workers) pair.
	Workers int `json:"workers,omitempty"`
}

// DeliverResponse acknowledges the run.
type DeliverResponse struct {
	Delivered int `json:"delivered"`
}

// BreakdownRow is one insights row: impressions for an age × gender ×
// region cell.
type BreakdownRow struct {
	Age         string `json:"age"`
	Gender      string `json:"gender"`
	Region      string `json:"region"`
	Impressions int    `json:"impressions"`
}

// InsightsResponse is the delivery report for one ad.
type InsightsResponse struct {
	AdID        string         `json:"ad_id"`
	Impressions int            `json:"impressions"`
	Reach       int            `json:"reach"`
	Clicks      int            `json:"clicks"`
	SpendCents  float64        `json:"spend_cents"`
	Breakdown   []BreakdownRow `json:"breakdown"`
	// Hourly is impressions per pacing interval over the delivery day; its
	// sum equals Impressions.
	Hourly []int `json:"hourly,omitempty"`
	// Privacy describes the privatization applied to this report. nil means
	// the report is raw (privacy level off) — the field is omitted entirely
	// so the privacy-off wire format is byte-identical to the pre-privacy
	// API. A server or coordinator never privatizes a response whose Privacy
	// field is already set (idempotence), and a coordinator refuses to merge
	// pre-privatized shard responses (merge-then-privatize).
	Privacy *WirePrivacy `json:"privacy,omitempty"`
}

// WirePrivacy records the privatization a report passed through.
type WirePrivacy struct {
	Level string `json:"level"`
	// K is the k-anonymity threshold (0 when level is off).
	K int `json:"k,omitempty"`
	// Epsilon is the DP noise parameter (0 unless level is k-anon+dp).
	Epsilon float64 `json:"epsilon,omitempty"`
	// SuppressedCells counts the breakdown cells withheld from this report.
	SuppressedCells int `json:"suppressed_cells"`
}

// ErrorResponse is the API error envelope.
type ErrorResponse struct {
	Error string `json:"error"`
}
