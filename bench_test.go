package adaudit

// The benchmark harness: one benchmark per table and figure in the paper's
// evaluation (regenerating the artifact end to end), plus the five ablation
// benches DESIGN.md calls out (A1-A5). Benchmarks report the artifact's
// headline quantity as a custom metric so `go test -bench` output doubles as
// a compact reproduction summary.
//
// Scale: the shared world is built once at ScaleTest so a full -bench=. run
// stays in the minutes range; the CLI (`adaudit -scale full run all`)
// regenerates everything at paper-comparable scale.

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"
	"testing"

	"github.com/adaudit/impliedidentity/internal/core"
	"github.com/adaudit/impliedidentity/internal/demo"
	"github.com/adaudit/impliedidentity/internal/image"
	"github.com/adaudit/impliedidentity/internal/platform"
	"github.com/adaudit/impliedidentity/internal/population"
	"github.com/adaudit/impliedidentity/internal/voter"
)

var (
	benchOnce sync.Once
	benchLab  *Lab
	benchPipe *SyntheticPipeline
)

func benchWorld(tb testing.TB) (*Lab, *SyntheticPipeline) {
	tb.Helper()
	benchOnce.Do(func() {
		lab, err := NewLab(LabConfig{Seed: 1000, Scale: ScaleTest})
		if err != nil {
			panic(err)
		}
		pipe, err := NewSyntheticPipeline(2000, 1001)
		if err != nil {
			panic(err)
		}
		benchLab, benchPipe = lab, pipe
	})
	return benchLab, benchPipe
}

var (
	benchStockOnce sync.Once
	benchStock     *StockResult
)

func benchStockResult(b *testing.B) *StockResult {
	b.Helper()
	lab, _ := benchWorld(b)
	benchStockOnce.Do(func() {
		res, err := lab.RunStockExperiment(StockExperimentOptions{Seed: 1002})
		if err != nil {
			panic(err)
		}
		benchStock = res
	})
	return benchStock
}

// BenchmarkTable1Stratification regenerates Table 1: stratified balanced
// sampling from both registries.
func BenchmarkTable1Stratification(b *testing.B) {
	lab, _ := benchWorld(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fl, nc := lab.BalancedSamples(lab.Config.Scale.PerCell(), int64(i))
		rows := core.Table1(fl, nc)
		if len(rows) != 6 {
			b.Fatal("bad table 1")
		}
	}
}

// BenchmarkTable2Campaigns regenerates the Table 2 ledger row for the stock
// campaign.
func BenchmarkTable2Campaigns(b *testing.B) {
	res := benchStockResult(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		row := SummarizeCampaign(res.Run, "Stock", "§5.2")
		if row.Ads == 0 {
			b.Fatal("empty row")
		}
	}
}

// BenchmarkTable3StockDelivery regenerates Table 3 end to end: a full
// 200-ad stock campaign plus aggregation.
func BenchmarkTable3StockDelivery(b *testing.B) {
	lab, _ := benchWorld(b)
	b.ResetTimer()
	var gap float64
	for i := 0; i < b.N; i++ {
		res, err := lab.RunStockExperiment(StockExperimentOptions{Seed: 2000 + int64(i)})
		if err != nil {
			b.Fatal(err)
		}
		byGroup := map[string]Table3Row{}
		for _, r := range res.Table3 {
			byGroup[r.Group] = r
		}
		gap = byGroup["race:black"].FracBlack - byGroup["race:white"].FracBlack
	}
	b.ReportMetric(100*gap, "raceGapPts")
}

// BenchmarkFigure3Panels regenerates the Figure 3 panel series from the
// stock deliveries.
func BenchmarkFigure3Panels(b *testing.B) {
	res := benchStockResult(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := FormatFigure3(res.Deliveries, "Figure 3")
		if len(out) == 0 {
			b.Fatal("empty figure")
		}
	}
}

// BenchmarkTable4aRegression regenerates the Table 4a fits.
func BenchmarkTable4aRegression(b *testing.B) {
	res := benchStockResult(b)
	b.ResetTimer()
	var coef float64
	for i := 0; i < b.N; i++ {
		t4, err := core.RegressTable4(res.Deliveries, core.AgeTarget65Plus)
		if err != nil {
			b.Fatal(err)
		}
		coef, _ = t4.Black.Coefficient("Black")
	}
	b.ReportMetric(coef, "blackCoef")
}

// BenchmarkTable4bRegression regenerates Table 4b end to end: the
// age-capped campaign plus its regression.
func BenchmarkTable4bRegression(b *testing.B) {
	lab, _ := benchWorld(b)
	b.ResetTimer()
	var coef float64
	for i := 0; i < b.N; i++ {
		res, err := lab.RunStockExperiment(StockExperimentOptions{Seed: 3000 + int64(i), AgeMax: 45, BudgetCents: 350})
		if err != nil {
			b.Fatal(err)
		}
		coef, _ = res.Table4.Black.Coefficient("Black")
	}
	b.ReportMetric(coef, "blackCoef")
}

// BenchmarkFigure4OlderAudience regenerates the Figure 4 series.
func BenchmarkFigure4OlderAudience(b *testing.B) {
	res := benchStockResult(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pts := Figure4(res.Deliveries)
		if len(pts) != 5 {
			b.Fatal("bad figure 4")
		}
	}
}

// BenchmarkFigure6LatentSweep regenerates the Figure 6 grid: tune one
// source face to all 20 demographic combinations.
func BenchmarkFigure6LatentSweep(b *testing.B) {
	_, pipe := benchWorld(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		specs, err := pipe.SyntheticSpecs(1)
		if err != nil {
			b.Fatal(err)
		}
		if len(specs) != 20 {
			b.Fatal("bad grid")
		}
	}
}

// BenchmarkTable4cRegression and BenchmarkFigure5Synthetic regenerate
// Campaign 3 (synthetic faces) and its analyses.
func BenchmarkTable4cRegression(b *testing.B) {
	lab, pipe := benchWorld(b)
	b.ResetTimer()
	var coef float64
	for i := 0; i < b.N; i++ {
		specs, err := pipe.SyntheticSpecs(3)
		if err != nil {
			b.Fatal(err)
		}
		auds, err := lab.DefaultSplitAudiences("bench-syn", 4000+int64(i))
		if err != nil {
			b.Fatal(err)
		}
		run, err := lab.RunPairedCampaign(CampaignConfig{
			Name: "bench synthetic", BudgetCents: 200, AgeMax: 44, Seed: 4100 + int64(i),
		}, specs, auds)
		if err != nil {
			b.Fatal(err)
		}
		ds, err := MeasureCampaign(run)
		if err != nil {
			b.Fatal(err)
		}
		t4, err := core.RegressTable4(ds, core.AgeTarget35Plus)
		if err != nil {
			b.Fatal(err)
		}
		coef, _ = t4.Black.Coefficient("Black")
	}
	b.ReportMetric(coef, "blackCoef")
}

// BenchmarkFigure5Synthetic regenerates the Figure 5 panels from a synthetic
// campaign (smaller: one source person).
func BenchmarkFigure5Synthetic(b *testing.B) {
	lab, pipe := benchWorld(b)
	specs, err := pipe.SyntheticSpecs(1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		auds, err := lab.DefaultSplitAudiences("bench-fig5", 5000+int64(i))
		if err != nil {
			b.Fatal(err)
		}
		run, err := lab.RunPairedCampaign(CampaignConfig{
			Name: "bench fig5", BudgetCents: 200, AgeMax: 44, Seed: 5100 + int64(i),
		}, specs, auds)
		if err != nil {
			b.Fatal(err)
		}
		ds, err := MeasureCampaign(run)
		if err != nil {
			b.Fatal(err)
		}
		if out := FormatFigure3(ds, "Figure 5"); len(out) == 0 {
			b.Fatal("empty figure")
		}
	}
}

// BenchmarkFigure1JobAdPair regenerates the Figure 1 contrast.
func BenchmarkFigure1JobAdPair(b *testing.B) {
	lab, pipe := benchWorld(b)
	b.ResetTimer()
	var contrast float64
	for i := 0; i < b.N; i++ {
		res, err := lab.RunFigure1(pipe, 6000+int64(i))
		if err != nil {
			b.Fatal(err)
		}
		contrast = res.WhiteImageFracWhite - res.BlackImageFracWhite
	}
	b.ReportMetric(100*contrast, "whiteDeliveryGapPts")
}

var (
	benchEmpOnce sync.Once
	benchEmp     *EmploymentResult
)

func benchEmployment(b *testing.B) *EmploymentResult {
	b.Helper()
	lab, pipe := benchWorld(b)
	benchEmpOnce.Do(func() {
		res, err := lab.RunEmploymentExperiment(EmploymentExperimentOptions{Seed: 7000, Pipeline: pipe})
		if err != nil {
			panic(err)
		}
		benchEmp = res
	})
	return benchEmp
}

// BenchmarkFigure7Employment regenerates Campaign 4 and the Figure 7 panels.
func BenchmarkFigure7Employment(b *testing.B) {
	lab, pipe := benchWorld(b)
	b.ResetTimer()
	var congruent float64
	for i := 0; i < b.N; i++ {
		res, err := lab.RunEmploymentExperiment(EmploymentExperimentOptions{Seed: 7100 + int64(i), Pipeline: pipe})
		if err != nil {
			b.Fatal(err)
		}
		congruent = core.CongruentRaceShare(res.RacePanel)
	}
	b.ReportMetric(100*congruent, "congruentSharePct")
}

// BenchmarkTable5MixedEffects regenerates the Table 5 fits.
func BenchmarkTable5MixedEffects(b *testing.B) {
	res := benchEmployment(b)
	b.ResetTimer()
	var coef float64
	for i := 0; i < b.N; i++ {
		t5, err := core.RegressTable5(res.Deliveries)
		if err != nil {
			b.Fatal(err)
		}
		coef, _ = t5.RaceOverall.Coefficient("Implied: Black")
	}
	b.ReportMetric(coef, "raceCoefIII")
}

// BenchmarkTableA1PovertyControl regenerates the Appendix A experiment.
func BenchmarkTableA1PovertyControl(b *testing.B) {
	lab, _ := benchWorld(b)
	b.ResetTimer()
	var coef float64
	for i := 0; i < b.N; i++ {
		res, err := lab.RunPovertyExperiment(PovertyExperimentOptions{Seed: 8000 + int64(i)})
		if err != nil {
			b.Fatal(err)
		}
		coef, _ = res.TableA1.Coefficient("Black")
	}
	b.ReportMetric(coef, "blackCoef")
}

// BenchmarkFigure2RaceInference regenerates the E11 methodology validation.
func BenchmarkFigure2RaceInference(b *testing.B) {
	lab, _ := benchWorld(b)
	b.ResetTimer()
	var mae float64
	for i := 0; i < b.N; i++ {
		res, err := lab.ValidateRaceInference(2, 9000+int64(i))
		if err != nil {
			b.Fatal(err)
		}
		mae = res.MeanAbsError
	}
	b.ReportMetric(100*mae, "inferenceErrPts")
}

// Ablation benches (DESIGN.md A1-A5) -------------------------------------

// BenchmarkAblationNoEAR: delivery optimization off; the race coefficient
// must collapse.
func BenchmarkAblationNoEAR(b *testing.B) {
	b.ResetTimer()
	var coef float64
	for i := 0; i < b.N; i++ {
		lab, err := NewLab(LabConfig{Seed: 10000 + int64(i), Scale: ScaleTest, DisableEAR: true})
		if err != nil {
			b.Fatal(err)
		}
		res, err := lab.RunStockExperiment(StockExperimentOptions{Seed: 10100 + int64(i)})
		lab.Close()
		if err != nil {
			b.Fatal(err)
		}
		coef, _ = res.Table4.Black.Coefficient("Black")
	}
	b.ReportMetric(coef, "blackCoefNoEAR")
}

// BenchmarkAblationAffinity: the Table 4 race coefficient scales with the
// behaviour model's affinity strength.
func BenchmarkAblationAffinity(b *testing.B) {
	b.ResetTimer()
	var lowC, highC float64
	for i := 0; i < b.N; i++ {
		for _, scale := range []float64{0.5, 1.5} {
			cfg := population.DefaultBehaviorConfig()
			cfg.AffinityScale = scale
			lab, err := NewLab(LabConfig{Seed: 11000 + int64(i), Scale: ScaleTest, Behavior: cfg})
			if err != nil {
				b.Fatal(err)
			}
			res, err := lab.RunStockExperiment(StockExperimentOptions{Seed: 11100 + int64(i)})
			lab.Close()
			if err != nil {
				b.Fatal(err)
			}
			c, _ := res.Table4.Black.Coefficient("Black")
			if scale < 1 {
				lowC = c
			} else {
				highC = c
			}
		}
	}
	b.ReportMetric(lowC, "blackCoefHalf")
	b.ReportMetric(highC, "blackCoef1p5")
}

// BenchmarkAblationRegionGranularity: state-level splits leak <1% of
// impressions; DMA-level travel leaks an order of magnitude more.
func BenchmarkAblationRegionGranularity(b *testing.B) {
	b.ResetTimer()
	var stateLeak, dmaLeak float64
	for i := 0; i < b.N; i++ {
		for _, tc := range []struct {
			prob float64
			dst  *float64
		}{{0.004, &stateLeak}, {0.12, &dmaLeak}} {
			lab, err := NewLab(LabConfig{Seed: 12000 + int64(i), Scale: ScaleTest, TravelProb: tc.prob})
			if err != nil {
				b.Fatal(err)
			}
			res, err := lab.ValidateRaceInference(1, 12100+int64(i))
			lab.Close()
			if err != nil {
				b.Fatal(err)
			}
			*tc.dst = res.MeanOutOfState
		}
	}
	b.ReportMetric(100*stateLeak, "stateLeakPct")
	b.ReportMetric(100*dmaLeak, "dmaLeakPct")
}

// BenchmarkAblationReversedCopies: the two-copy aggregation cancels an
// injected location confounder.
func BenchmarkAblationReversedCopies(b *testing.B) {
	b.ResetTimer()
	var mae float64
	for i := 0; i < b.N; i++ {
		lab, err := NewLab(LabConfig{Seed: 13000 + int64(i), Scale: ScaleTest, FLActivityBoost: 1.5})
		if err != nil {
			b.Fatal(err)
		}
		res, err := lab.ValidateRaceInference(1, 13100+int64(i))
		lab.Close()
		if err != nil {
			b.Fatal(err)
		}
		mae = res.MeanAbsError
	}
	b.ReportMetric(100*mae, "confoundedErrPts")
}

// BenchmarkAblationPacing: budget utilisation with the pacing controller vs
// greedy spend.
func BenchmarkAblationPacing(b *testing.B) {
	b.ResetTimer()
	var paced, greedy float64
	for i := 0; i < b.N; i++ {
		for _, g := range []bool{false, true} {
			lab, err := NewLab(LabConfig{Seed: 14000 + int64(i), Scale: ScaleTest, GreedyPacing: g})
			if err != nil {
				b.Fatal(err)
			}
			res, err := lab.RunStockExperiment(StockExperimentOptions{Seed: 14100 + int64(i), PerPerson: 1})
			lab.Close()
			if err != nil {
				b.Fatal(err)
			}
			util := res.Run.TotalSpendCents() / float64(200*res.Run.AdCount())
			if g {
				greedy = util
			} else {
				paced = util
			}
		}
	}
	b.ReportMetric(100*paced, "pacedBudgetUtilPct")
	b.ReportMetric(100*greedy, "greedyBudgetUtilPct")
}

// Substrate micro-benchmarks ----------------------------------------------

// BenchmarkVoterGeneration measures synthetic registry generation.
func BenchmarkVoterGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := voter.DefaultGeneratorConfig(demo.StateFL, int64(i))
		cfg.NumVoters = 10000
		if _, err := voter.Generate(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDeliveryCSV measures the CSV emitter.
func BenchmarkDeliveryCSV(b *testing.B) {
	res := benchStockResult(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := WriteDeliveriesCSV(io.Discard, res.Deliveries); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAuctionDay measures one full delivery day for a two-ad pair —
// the simulator's hot loop.
func BenchmarkAuctionDay(b *testing.B) {
	lab, pipe := benchWorld(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lab.RunFigure1(pipe, 15100+int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// Parallel delivery benches ------------------------------------------------

var (
	benchDelivOnce sync.Once
	benchDelivPlat *platform.Platform
	benchDelivCA   string
)

// benchDeliveryWorld builds a dedicated platform (review rejection off, so
// every created ad is active) over the shared bench population, plus one
// balanced custom audience, reused by every worker-count sub-benchmark.
func benchDeliveryWorld(b *testing.B) (*platform.Platform, string) {
	b.Helper()
	lab, _ := benchWorld(b)
	benchDelivOnce.Do(func() {
		behave, err := population.NewBehavior(population.DefaultBehaviorConfig())
		if err != nil {
			panic(err)
		}
		cfg := platform.DefaultConfig(21001)
		cfg.Training.LogRows = 12000
		cfg.ReviewRejectProb = 0
		p, err := platform.New(cfg, lab.Pop, behave)
		if err != nil {
			panic(err)
		}
		fl, nc := lab.BalancedSamples(60, 21002)
		var hashes []string
		for _, sample := range [][]voter.Record{fl, nc} {
			for i := range sample {
				r := &sample[i]
				hashes = append(hashes, population.HashPII(r.FirstName, r.LastName, r.Address, r.ZIP))
			}
		}
		ca, err := p.CreateCustomAudience("bench-delivery", hashes)
		if err != nil {
			panic(err)
		}
		benchDelivPlat, benchDelivCA = p, ca.ID
	})
	return benchDelivPlat, benchDelivCA
}

// benchDeliveryAdSet creates a fresh four-ad campaign (budgets far above the
// market's spend ceiling, as in the differential suite's golden scenarios)
// and returns the ad IDs in creation order.
func benchDeliveryAdSet(b *testing.B, p *platform.Platform, caID string) []string {
	b.Helper()
	cmp, err := p.CreateCampaign("bench-delivery", platform.ObjectiveTraffic, platform.SpecialNone, 2019)
	if err != nil {
		b.Fatal(err)
	}
	targeting := platform.Targeting{CustomAudienceIDs: []string{caID}}
	ids := make([]string, 0, 4)
	for _, prof := range []demo.Profile{
		{Gender: demo.GenderMale, Race: demo.RaceWhite, Age: demo.ImpliedAdult},
		{Gender: demo.GenderMale, Race: demo.RaceBlack, Age: demo.ImpliedAdult},
		{Gender: demo.GenderFemale, Race: demo.RaceWhite, Age: demo.ImpliedAdult},
		{Gender: demo.GenderFemale, Race: demo.RaceBlack, Age: demo.ImpliedAdult},
	} {
		creative := platform.Creative{Image: image.FromProfile(prof), Headline: "h", LinkURL: "https://example.com"}
		ad, err := p.CreateAd(cmp.ID, creative, targeting, 2_000_000)
		if err != nil {
			b.Fatal(err)
		}
		ids = append(ids, ad.ID)
	}
	return ids
}

// benchDeliveryDigest canonicalizes the ads' delivery reports (IDs
// normalized to creation order, map cells sorted) and folds the SHA-256 into
// a float-exact 32-bit value, reported as the `digest` metric so CI can
// diff two runs' outputs straight from the -bench output.
func benchDeliveryDigest(b *testing.B, p *platform.Platform, ids []string) float64 {
	b.Helper()
	h := sha256.New()
	for i, id := range ids {
		st, err := p.Insights(id)
		if err != nil {
			b.Fatal(err)
		}
		fmt.Fprintf(h, "ad#%d|%d|%d|%d|%.6f|%v|", i, st.Impressions, st.Reach, st.Clicks, st.SpendCents, st.HourlySeries)
		cells := make([]platform.BreakdownKey, 0, len(st.Breakdown))
		for k := range st.Breakdown {
			cells = append(cells, k)
		}
		sort.Slice(cells, func(a, c int) bool {
			ka, kc := cells[a], cells[c]
			if ka.Age != kc.Age {
				return ka.Age < kc.Age
			}
			if ka.Gender != kc.Gender {
				return ka.Gender < kc.Gender
			}
			return ka.Region < kc.Region
		})
		for _, k := range cells {
			fmt.Fprintf(h, "%d/%d/%d=%d|", k.Age, k.Gender, k.Region, st.Breakdown[k])
		}
		races := make([]demo.Race, 0, len(st.RaceOracle))
		for r := range st.RaceOracle {
			races = append(races, r)
		}
		sort.Slice(races, func(a, c int) bool { return races[a] < races[c] })
		for _, r := range races {
			fmt.Fprintf(h, "r%d=%d|", r, st.RaceOracle[r])
		}
	}
	sum := h.Sum(nil)
	return float64(binary.BigEndian.Uint32(sum[:4]))
}

// BenchmarkDeliveryWorkers measures one full delivery day (fresh ad set per
// iteration) at each shard count. The `digest` metric fingerprints the
// delivery output: it must be identical between repeated runs at the same
// worker count (the CI bench-smoke job enforces this), and workers=1 must
// match the historical sequential output, which the differential suite's
// goldens pin.
func BenchmarkDeliveryWorkers(b *testing.B) {
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			p, caID := benchDeliveryWorld(b)
			b.ResetTimer()
			var digest float64
			for i := 0; i < b.N; i++ {
				ids := benchDeliveryAdSet(b, p, caID)
				if err := p.RunDayWorkers(ids, 21500, workers); err != nil {
					b.Fatal(err)
				}
				digest = benchDeliveryDigest(b, p, ids)
			}
			b.ReportMetric(digest, "digest")
			b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "gomaxprocs")
		})
	}
}

// Extension benches (DESIGN.md E13-E15) -----------------------------------

// BenchmarkExtensionObjectives regenerates the E13 objective comparison.
func BenchmarkExtensionObjectives(b *testing.B) {
	lab, _ := benchWorld(b)
	b.ResetTimer()
	var awarenessGap, trafficGap float64
	for i := 0; i < b.N; i++ {
		res, err := lab.RunObjectiveComparison(16000 + 100*int64(i))
		if err != nil {
			b.Fatal(err)
		}
		awarenessGap = res.Gaps[0].RaceGap
		trafficGap = res.Gaps[1].RaceGap
	}
	b.ReportMetric(100*awarenessGap, "awarenessGapPts")
	b.ReportMetric(100*trafficGap, "trafficGapPts")
}

// BenchmarkExtensionGroupPhotos regenerates the E14 group-photo experiment.
func BenchmarkExtensionGroupPhotos(b *testing.B) {
	lab, _ := benchWorld(b)
	b.ResetTimer()
	var pairFrac float64
	for i := 0; i < b.N; i++ {
		res, err := lab.RunGroupPhotoExperiment(17000 + 10*int64(i))
		if err != nil {
			b.Fatal(err)
		}
		pairFrac = res.DiversePair.FracBlack
	}
	b.ReportMetric(100*pairFrac, "pairBlackPct")
}

// BenchmarkExtensionLookalike regenerates the E15 lookalike experiment.
func BenchmarkExtensionLookalike(b *testing.B) {
	lab, _ := benchWorld(b)
	b.ResetTimer()
	var lift float64
	for i := 0; i < b.N; i++ {
		res, err := lab.RunLookalikeExperiment(1200, 1500, 18000+10*int64(i))
		if err != nil {
			b.Fatal(err)
		}
		lift = res.Lift()
	}
	b.ReportMetric(lift, "liftPts")
}

// BenchmarkExtensionFeedback regenerates the E16 feedback-loop experiment
// (two rounds on a dedicated world — retraining mutates the platform).
func BenchmarkExtensionFeedback(b *testing.B) {
	b.ResetTimer()
	var finalCoef float64
	for i := 0; i < b.N; i++ {
		lab, err := NewLab(LabConfig{Seed: 19000 + int64(i), Scale: ScaleTest})
		if err != nil {
			b.Fatal(err)
		}
		res, err := lab.RunFeedbackLoop(2, 19100+int64(i))
		lab.Close()
		if err != nil {
			b.Fatal(err)
		}
		finalCoef = res.Rounds[len(res.Rounds)-1].BlackCoef
	}
	b.ReportMetric(finalCoef, "finalBlackCoef")
}
