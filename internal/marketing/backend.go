package marketing

import (
	"context"
	"errors"
	"net/http"
	"sort"

	"github.com/adaudit/impliedidentity/internal/platform"
)

// Backend is what a Server serves: the advertiser-facing operations of the
// marketing API, wire types in and out. Two backends exist — one platform
// in this process (NewServer) and the coordinator over a shard fleet
// (coordinator.NewRouter) — so the handlers, the middleware chain, request
// validation and the error-to-status map are written once and the fleet
// answers exactly as a single process does.
//
// Errors map onto HTTP statuses in this order: a status tagged with
// WithStatus; an error wrapping ErrUnavailable (503 + Retry-After); an
// *APIError from a downstream server (its own status); anything else 502.
// The four CRUD mutations find the caller's idempotency key on their
// context (IdempotencyKeyFrom); Deliver does not carry one.
type Backend interface {
	CreateAudience(ctx context.Context, req CreateAudienceRequest) (*CreateAudienceResponse, error)
	CreateCampaign(ctx context.Context, req CreateCampaignRequest) (*CreateCampaignResponse, error)
	CreateAd(ctx context.Context, req CreateAdRequest) (*AdResponse, error)
	AppealAd(ctx context.Context, adID string) (*AdResponse, error)
	GetAd(ctx context.Context, adID string) (*AdResponse, error)
	Deliver(ctx context.Context, req DeliverRequest) (*DeliverResponse, error)
	// Insights reports one ad's delivery broken down by dims (a subset of
	// age, gender, region, already validated; empty means all three).
	Insights(ctx context.Context, adID string, dims []string) (*InsightsResponse, error)
	Inventory(ctx context.Context) (*platform.Inventory, error)
}

// ErrUnavailable marks a backend condition that is real but expected to
// clear, such as a quarantined shard. The server answers it with 503 and a
// Retry-After hint, the contract idempotent clients retry against.
var ErrUnavailable = errors.New("marketing: backend temporarily unavailable")

// unavailableRetryAfter is the Retry-After hint for ErrUnavailable: roughly
// one supervisor probe/rejoin cycle, so a client's next idempotent retry
// lands after the fleet had a chance to heal.
const unavailableRetryAfter = "2"

// statusError is a backend error tagged with the status it answers with.
type statusError struct {
	code int
	err  error
}

func (e *statusError) Error() string { return e.err.Error() }
func (e *statusError) Unwrap() error { return e.err }

// WithStatus tags a backend error with the HTTP status the server answers
// it with; the response body is err's message unchanged.
func WithStatus(code int, err error) error {
	return &statusError{code: code, err: err}
}

// writeBackendError maps a backend error onto the wire (see Backend).
func writeBackendError(w http.ResponseWriter, err error) {
	code := http.StatusBadGateway
	var tagged *statusError
	var apiErr *APIError
	switch {
	case errors.As(err, &tagged):
		code = tagged.code
	case errors.Is(err, ErrUnavailable):
		w.Header().Set("Retry-After", unavailableRetryAfter)
		code = http.StatusServiceUnavailable
	case errors.As(err, &apiErr):
		code = apiErr.StatusCode
	}
	writeError(w, code, err)
}

// BreakdownRows turns aggregated breakdown cells (keys with Impressions
// zero) into insights rows in the canonical age, gender, region order. It
// returns nil for no cells, which encodes as the historical "null".
func BreakdownRows(cells map[BreakdownRow]int) []BreakdownRow {
	var rows []BreakdownRow
	for row, n := range cells {
		row.Impressions = n
		rows = append(rows, row)
	}
	sort.Slice(rows, func(i, j int) bool {
		a, b := rows[i], rows[j]
		if a.Age != b.Age {
			return a.Age < b.Age
		}
		if a.Gender != b.Gender {
			return a.Gender < b.Gender
		}
		return a.Region < b.Region
	})
	return rows
}

// platformBackend serves one in-process platform. Platform calls take no
// context: they are bounded in-memory work under the platform's own lock.
type platformBackend struct {
	p *platform.Platform
}

func (b platformBackend) CreateAudience(_ context.Context, req CreateAudienceRequest) (*CreateAudienceResponse, error) {
	ca, err := b.p.CreateCustomAudience(req.Name, req.PIIHashes)
	if err != nil {
		return nil, WithStatus(http.StatusBadRequest, err)
	}
	return &CreateAudienceResponse{ID: ca.ID, MatchedSize: ca.Size}, nil
}

func (b platformBackend) CreateCampaign(_ context.Context, req CreateCampaignRequest) (*CreateCampaignResponse, error) {
	obj, err := platform.ParseObjective(req.Objective)
	if err != nil {
		return nil, WithStatus(http.StatusBadRequest, err)
	}
	special, err := platform.ParseSpecialAdCategory(req.SpecialAdCategory)
	if err != nil {
		return nil, WithStatus(http.StatusBadRequest, err)
	}
	c, err := b.p.CreateCampaign(req.Name, obj, special, req.AccountAge)
	if err != nil {
		return nil, WithStatus(http.StatusBadRequest, err)
	}
	return &CreateCampaignResponse{ID: c.ID}, nil
}

func (b platformBackend) CreateAd(_ context.Context, req CreateAdRequest) (*AdResponse, error) {
	img, err := req.Creative.Image.ToFeatures()
	if err != nil {
		return nil, WithStatus(http.StatusBadRequest, err)
	}
	targeting, err := req.Targeting.ToTargeting()
	if err != nil {
		return nil, WithStatus(http.StatusBadRequest, err)
	}
	creative := platform.Creative{
		Image:    img,
		Headline: req.Creative.Headline,
		Body:     req.Creative.Body,
		LinkURL:  req.Creative.LinkURL,
	}
	ad, err := b.p.CreateAd(req.CampaignID, creative, targeting, req.DailyBudgetCents)
	if err != nil {
		return nil, WithStatus(http.StatusBadRequest, err)
	}
	return &AdResponse{ID: ad.ID, Status: ad.Status.String()}, nil
}

func (b platformBackend) AppealAd(_ context.Context, adID string) (*AdResponse, error) {
	ad, err := b.p.AppealAd(adID)
	if err != nil {
		code := http.StatusBadRequest
		if errors.Is(err, platform.ErrUnknownAd) {
			code = http.StatusNotFound
		}
		return nil, WithStatus(code, err)
	}
	return &AdResponse{ID: ad.ID, Status: ad.Status.String()}, nil
}

func (b platformBackend) GetAd(_ context.Context, adID string) (*AdResponse, error) {
	ad, err := b.p.Ad(adID)
	if err != nil {
		return nil, WithStatus(http.StatusNotFound, err)
	}
	return &AdResponse{ID: ad.ID, Status: ad.Status.String()}, nil
}

func (b platformBackend) Deliver(_ context.Context, req DeliverRequest) (*DeliverResponse, error) {
	if err := b.p.RunDayWorkers(req.AdIDs, req.Seed, req.Workers); err != nil {
		return nil, WithStatus(http.StatusBadRequest, err)
	}
	return &DeliverResponse{Delivered: len(req.AdIDs)}, nil
}

func (b platformBackend) Insights(_ context.Context, adID string, dims []string) (*InsightsResponse, error) {
	st, err := b.p.Insights(adID)
	if err != nil {
		return nil, WithStatus(http.StatusNotFound, err)
	}
	// Omitted dimensions are aggregated out, like the real Insights API's
	// `breakdowns` parameter.
	age, gender, region := len(dims) == 0, len(dims) == 0, len(dims) == 0
	for _, d := range dims {
		switch d {
		case "age":
			age = true
		case "gender":
			gender = true
		case "region":
			region = true
		}
	}
	cells := map[BreakdownRow]int{}
	for k, n := range st.Breakdown {
		row := BreakdownRow{}
		if age {
			row.Age = k.Age.String()
		}
		if gender {
			row.Gender = k.Gender.String()
		}
		if region {
			row.Region = k.Region.String()
		}
		cells[row] += n
	}
	return &InsightsResponse{
		AdID:        st.AdID,
		Impressions: st.Impressions,
		Reach:       st.Reach,
		Clicks:      st.Clicks,
		SpendCents:  st.SpendCents,
		Breakdown:   BreakdownRows(cells),
		Hourly:      append([]int(nil), st.HourlySeries...),
	}, nil
}

func (b platformBackend) Inventory(context.Context) (*platform.Inventory, error) {
	inv := b.p.Inventory()
	return &inv, nil
}
