package main

import (
	"fmt"
	"time"

	"github.com/adaudit/impliedidentity/internal/demo"
	"github.com/adaudit/impliedidentity/internal/platform"
	"github.com/adaudit/impliedidentity/internal/population"
	"github.com/adaudit/impliedidentity/internal/voter"
)

// WorldSpec sizes a simulated world. Seeds are derived from Seed the way
// core.NewLab derives them (registries +1/+2, population +3, platform +4),
// so the audit world is the one a core.ScaleFull lab builds.
type WorldSpec struct {
	Seed            int64
	States          []demo.State
	VotersPerState  int
	TrainingLogRows int
}

// World is a built world and the time each layer took to build it.
type World struct {
	Registries []*voter.Registry
	Pop        *population.Population
	Behavior   *population.Behavior
	Spec       WorldSpec

	VoterGenerate   time.Duration
	PopulationBuild time.Duration
}

// buildWorld generates the registries and the population. Platforms are
// built separately (newPlatform) because a fleet puts several platforms
// over one population.
func buildWorld(spec WorldSpec) (*World, error) {
	w := &World{Spec: spec}
	start := time.Now()
	for i, st := range spec.States {
		cfg := voter.DefaultGeneratorConfig(st, spec.Seed+1+int64(i))
		cfg.NumVoters = spec.VotersPerState
		reg, err := voter.Generate(cfg)
		if err != nil {
			return nil, fmt.Errorf("generating %v registry: %w", st, err)
		}
		w.Registries = append(w.Registries, reg)
	}
	w.VoterGenerate = time.Since(start)

	start = time.Now()
	pop, err := population.Build(population.Config{Seed: spec.Seed + 3}, w.Registries...)
	if err != nil {
		return nil, fmt.Errorf("building population: %w", err)
	}
	w.PopulationBuild = time.Since(start)
	w.Pop = pop

	if w.Behavior, err = population.NewBehavior(population.DefaultBehaviorConfig()); err != nil {
		return nil, err
	}
	return w, nil
}

// BytesPerUser is the population's resident size per user.
func (w *World) BytesPerUser() float64 {
	return float64(w.Pop.MemoryBytes()) / float64(w.Pop.Len())
}

// setupTimes is one build of a system over this world that started at start
// and spent platformNew in platform.New.
func (w *World) setupTimes(start time.Time, platformNew time.Duration) SetupTimes {
	return SetupTimes{
		Total:           time.Since(start),
		VoterGenerate:   w.VoterGenerate,
		PopulationBuild: w.PopulationBuild,
		PlatformNew:     platformNew,
		BytesPerUser:    w.BytesPerUser(),
	}
}

// newPlatform trains one platform over the world and reports how long
// platform.New took.
func (w *World) newPlatform() (*platform.Platform, time.Duration, error) {
	cfg := platform.DefaultConfig(w.Spec.Seed + 4)
	cfg.Training.LogRows = w.Spec.TrainingLogRows
	cfg.ReviewRejectProb = 0 // as core.NewLab: no ad is refused by a review re-roll
	start := time.Now()
	p, err := platform.New(cfg, w.Pop, w.Behavior)
	if err != nil {
		return nil, 0, fmt.Errorf("building platform: %w", err)
	}
	return p, time.Since(start), nil
}

// piiHashes returns the hashed PII of registry records [from, from+n),
// wrapping around the registry — the upload form of a Custom Audience.
func (w *World) piiHashes(reg, from, n int) []string {
	recs := w.Registries[reg].Records
	out := make([]string, n)
	for i := range out {
		r := &recs[(from+i)%len(recs)]
		out[i] = population.HashPII(r.FirstName, r.LastName, r.Address, r.ZIP)
	}
	return out
}
