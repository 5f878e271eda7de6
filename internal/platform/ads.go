// Package platform simulates the advertising platform under audit: ad
// creation (campaigns, creatives, targeting, budgets, special ad
// categories), Custom Audience PII matching, ad review, and — the object of
// study — the delivery pipeline, where a machine-learned estimated-action-
// rate model feeds a paced second-price auction (§2.1: "total value =
// advertiser bid × estimated action rate + ad quality").
//
// The crucial design property: the delivery machinery contains no
// demographic rules. The eAR model is a logistic regression trained on
// engagement logs generated by the ground-truth behaviour model in package
// population; every delivery skew the audit measures emerges from that
// training data through optimization, which is exactly the causal pathway
// the paper investigates.
package platform

import (
	"fmt"

	"github.com/adaudit/impliedidentity/internal/demo"
	"github.com/adaudit/impliedidentity/internal/image"
	"github.com/adaudit/impliedidentity/internal/population"
)

// Objective is the advertiser's stated optimization goal (§2.1).
type Objective uint8

// Objectives. The paper's campaigns all use Traffic, consistent with prior
// work.
const (
	ObjectiveTraffic Objective = iota
	ObjectiveConversions
	ObjectiveAwareness
)

// String returns the marketing-API name of the objective.
func (o Objective) String() string {
	switch o {
	case ObjectiveTraffic:
		return "TRAFFIC"
	case ObjectiveConversions:
		return "CONVERSIONS"
	case ObjectiveAwareness:
		return "AWARENESS"
	}
	return fmt.Sprintf("Objective(%d)", uint8(o))
}

// ParseObjective converts a marketing-API objective name.
func ParseObjective(s string) (Objective, error) {
	switch s {
	case "TRAFFIC":
		return ObjectiveTraffic, nil
	case "CONVERSIONS":
		return ObjectiveConversions, nil
	case "AWARENESS":
		return ObjectiveAwareness, nil
	}
	return 0, fmt.Errorf("platform: unknown objective %q", s)
}

// SpecialAdCategory flags ads in regulated verticals. Ads flagged this way
// go through the restricted flow Facebook created after the NFHA settlement
// (§2.2): age and gender targeting limits are rejected at creation.
type SpecialAdCategory uint8

// Special ad categories.
const (
	SpecialNone SpecialAdCategory = iota
	SpecialEmployment
	SpecialHousing
	SpecialCredit
)

// String returns the marketing-API name.
func (c SpecialAdCategory) String() string {
	switch c {
	case SpecialNone:
		return "NONE"
	case SpecialEmployment:
		return "EMPLOYMENT"
	case SpecialHousing:
		return "HOUSING"
	case SpecialCredit:
		return "CREDIT"
	}
	return fmt.Sprintf("SpecialAdCategory(%d)", uint8(c))
}

// ParseSpecialAdCategory converts a marketing-API category name.
func ParseSpecialAdCategory(s string) (SpecialAdCategory, error) {
	switch s {
	case "", "NONE":
		return SpecialNone, nil
	case "EMPLOYMENT":
		return SpecialEmployment, nil
	case "HOUSING":
		return SpecialHousing, nil
	case "CREDIT":
		return SpecialCredit, nil
	}
	return 0, fmt.Errorf("platform: unknown special ad category %q", s)
}

// Campaign groups ads under one objective and budget discipline.
type Campaign struct {
	ID              string
	Name            string
	Objective       Objective
	SpecialCategory SpecialAdCategory
	// AccountAge is the creation year of the owning ad account; the paper
	// notes its campaigns ran from a 2019 account except the "real-world"
	// ads (2007 account). Review strictness depends on it (Appendix A).
	AccountAge int
}

// Targeting is the target-audience specification: the intersection of the
// referenced Custom Audiences with the attribute limits.
type Targeting struct {
	CustomAudienceIDs []string
	AgeMin            int           // 0 = unset (defaults to 18)
	AgeMax            int           // 0 = unset
	Genders           []demo.Gender // empty = all
	States            []demo.State  // empty = all
}

// Validate checks structural validity and special-category restrictions.
func (t *Targeting) Validate(special SpecialAdCategory) error {
	if len(t.CustomAudienceIDs) == 0 {
		return fmt.Errorf("platform: targeting requires at least one custom audience")
	}
	if t.AgeMin < 0 || t.AgeMax < 0 || (t.AgeMax != 0 && t.AgeMax < t.AgeMin) {
		return fmt.Errorf("platform: invalid age range [%d, %d]", t.AgeMin, t.AgeMax)
	}
	if special != SpecialNone {
		// The special-ads flow removes age and gender targeting (§2.2).
		if t.AgeMin > 18 || (t.AgeMax != 0 && t.AgeMax < 65) {
			return fmt.Errorf("platform: special ad category %v forbids age targeting", special)
		}
		if len(t.Genders) != 0 {
			return fmt.Errorf("platform: special ad category %v forbids gender targeting", special)
		}
	}
	return nil
}

// matchesUser reports whether a user satisfies the attribute limits (custom
// audience membership is checked separately).
func (t *Targeting) matchesUser(u population.UserView) bool {
	ageMin := t.AgeMin
	if ageMin == 0 {
		ageMin = 18
	}
	age := u.Age()
	if age < ageMin {
		return false
	}
	if t.AgeMax != 0 && age > t.AgeMax {
		return false
	}
	if len(t.Genders) > 0 {
		ok := false
		for _, g := range t.Genders {
			if u.Gender() == g {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	if len(t.States) > 0 {
		ok := false
		for _, s := range t.States {
			if u.State() == s {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

// Creative is the ad content. Only the image varies across the audit's ads
// (§3.2); headline, body, and link are identical within an experiment.
type Creative struct {
	Image    image.Features
	Headline string
	Body     string
	LinkURL  string
}

// AdStatus tracks an ad through review and delivery.
type AdStatus uint8

// Ad statuses.
const (
	StatusPendingReview AdStatus = iota
	StatusActive
	StatusRejected
	StatusCompleted
)

// String returns the status name.
func (s AdStatus) String() string {
	switch s {
	case StatusPendingReview:
		return "PENDING_REVIEW"
	case StatusActive:
		return "ACTIVE"
	case StatusRejected:
		return "REJECTED"
	case StatusCompleted:
		return "COMPLETED"
	}
	return fmt.Sprintf("AdStatus(%d)", uint8(s))
}

// Ad is one deliverable ad.
type Ad struct {
	ID               string
	CampaignID       string
	Objective        Objective // inherited from the campaign
	Creative         Creative
	Targeting        Targeting
	DailyBudgetCents int
	Status           AdStatus

	// Delivery-time state (owned by the engine).
	perceived perceivedCreative
	folded    foldedEAR
	audience  []int // population indexes of targeted users
}
