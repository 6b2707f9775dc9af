// Package repro_test holds the reproduction benchmark harness: one
// benchmark per table and figure of the paper's evaluation (§6–§7), plus
// ablation benches for the design choices called out in DESIGN.md §7.
//
// Run everything:
//
//	go test -bench=. -benchmem
//
// The benchmarks use reduced dataset sizes (14 days, pruned grids) so a
// full sweep completes in minutes; `cmd/benchtables` regenerates the
// full-size tables (42 days, Table 1's 1008 hourly observations) with
// the same code paths, and EXPERIMENTS.md records the outputs.
package repro_test

import (
	"context"
	"testing"
	"time"

	"repro/internal/arima"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/timeseries"
	"repro/internal/workload"
)

// benchOpt keeps one benchmark iteration in the seconds range.
var benchOpt = experiments.Options{Days: 14, Seed: 42, MaxCandidates: 6}

var benchStart = time.Date(2026, 3, 2, 0, 0, 0, 0, time.UTC)

// BenchmarkTable1Splits measures the Table 1 split policy applied to the
// three granularities (the bookkeeping step of every engine run).
func BenchmarkTable1Splits(b *testing.B) {
	b.ReportAllocs()
	hourly := timeseries.New("h", benchStart, timeseries.Hourly, make([]float64, 1008))
	daily := timeseries.New("d", benchStart, timeseries.Daily, make([]float64, 90))
	weekly := timeseries.New("w", benchStart, timeseries.Weekly, make([]float64, 92))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, s := range []*timeseries.Series{hourly, daily, weekly} {
			p, err := core.PolicyFor(s.Freq)
			if err != nil {
				b.Fatal(err)
			}
			if _, _, err := p.Split(s); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkTable2aOLAP regenerates Table 2(a): the three model families
// on every instance × metric of the OLAP experiment.
func BenchmarkTable2aOLAP(b *testing.B) {
	b.ReportAllocs()
	ds, err := experiments.Build(experiments.OLAP, benchOpt)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table2(context.Background(), ds, benchOpt)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 18 {
			b.Fatalf("rows = %d", len(rows))
		}
	}
}

// BenchmarkTable2bOLTP regenerates Table 2(b) on the OLTP experiment.
func BenchmarkTable2bOLTP(b *testing.B) {
	b.ReportAllocs()
	ds, err := experiments.Build(experiments.OLTP, benchOpt)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table2(context.Background(), ds, benchOpt)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 18 {
			b.Fatalf("rows = %d", len(rows))
		}
	}
}

// BenchmarkFigure1Visualisation regenerates the Figure 1 pieces:
// correlograms, decomposition and differencing.
func BenchmarkFigure1Visualisation(b *testing.B) {
	b.ReportAllocs()
	ds, err := experiments.Build(experiments.OLTP, benchOpt)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure1(ds, "cdbm011/cpu"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure2OLAPWorkload regenerates the Figure 2 workload series:
// simulate → agent → repository → hourly aggregation.
func BenchmarkFigure2OLAPWorkload(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ds, err := experiments.Build(experiments.OLAP, benchOpt)
		if err != nil {
			b.Fatal(err)
		}
		if fig := experiments.Figure2And3(ds); len(fig.Panels) != 6 {
			b.Fatal("panels missing")
		}
	}
}

// BenchmarkFigure3OLTPWorkload regenerates the Figure 3 workload series.
func BenchmarkFigure3OLTPWorkload(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ds, err := experiments.Build(experiments.OLTP, benchOpt)
		if err != nil {
			b.Fatal(err)
		}
		if fig := experiments.Figure2And3(ds); len(fig.Panels) != 6 {
			b.Fatal("panels missing")
		}
	}
}

// BenchmarkFigure6Predictions regenerates the Figure 6 charts: the three
// families forecasting OLAP CPU.
func BenchmarkFigure6Predictions(b *testing.B) {
	b.ReportAllocs()
	ds, err := experiments.Build(experiments.OLAP, benchOpt)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		charts, err := experiments.Figure6(context.Background(), ds, benchOpt)
		if err != nil {
			b.Fatal(err)
		}
		if len(charts) != 3 {
			b.Fatal("charts missing")
		}
	}
}

// BenchmarkFigure7Predictions regenerates the Figure 7 charts: SARIMAX
// with Exogenous and Fourier terms on the three OLTP metrics.
func BenchmarkFigure7Predictions(b *testing.B) {
	b.ReportAllocs()
	ds, err := experiments.Build(experiments.OLTP, benchOpt)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		charts, err := experiments.Figure7(context.Background(), ds, benchOpt)
		if err != nil {
			b.Fatal(err)
		}
		if len(charts) != 3 {
			b.Fatal("charts missing")
		}
	}
}

// BenchmarkModelGridEnumeration measures building the paper's §6.3 grids
// (180 + 660 + 666 models) — the model-count parity check.
func BenchmarkModelGridEnumeration(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if len(arima.ARIMAGrid()) != 180 {
			b.Fatal("ARIMA grid size")
		}
		if len(arima.SARIMAXGrid(24)) != 660 {
			b.Fatal("SARIMAX grid size")
		}
		if len(arima.SARIMAXExogFourierGrid(24)) != 666 {
			b.Fatal("SARIMAX+FFT+Exog grid size")
		}
	}
}

// benchSeries is a 1008-point hourly series with season, trend and
// midnight shocks, shared by the ablation benches.
func benchSeries() *timeseries.Series {
	var shocks []int
	for d := 0; d < 42; d++ {
		shocks = append(shocks, d*24)
	}
	y := workload.Synthetic(workload.SyntheticOpts{
		N: 1008, Level: 100, Trend: 0.05,
		Periods: []int{24}, Amps: []float64{15},
		Noise: 1.0, ShockAt: shocks, ShockAmp: 40, Seed: 9,
	})
	return timeseries.New("bench", benchStart, timeseries.Hourly, y)
}

// BenchmarkAblationSerialFit is the paper's §9 parallelism claim,
// baseline side: engine run with a single worker.
func BenchmarkAblationSerialFit(b *testing.B) {
	b.ReportAllocs()
	s := benchSeries()
	eng, err := core.NewEngine(core.Options{Technique: core.TechniqueSARIMAX, Workers: 1, MaxCandidates: 8})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Run(context.Background(), s); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationParallelFit is the parallel side: same grid, all cores.
func BenchmarkAblationParallelFit(b *testing.B) {
	b.ReportAllocs()
	s := benchSeries()
	eng, err := core.NewEngine(core.Options{Technique: core.TechniqueSARIMAX, MaxCandidates: 8})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Run(context.Background(), s); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationExogOff measures the engine without exogenous shock
// regressors (DESIGN.md ablation: what the shocks buy).
func BenchmarkAblationExogOff(b *testing.B) {
	b.ReportAllocs()
	s := benchSeries()
	eng, err := core.NewEngine(core.Options{
		Technique: core.TechniqueSARIMAX, MaxCandidates: 8,
		DisableExog: true, DisableFourier: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Run(context.Background(), s); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationSingleSARIMAXFit isolates one CSS fit of the paper's
// headline order (1,1,1)(1,1,1,24) on 984 points — the unit of work the
// grid search multiplies.
func BenchmarkAblationSingleSARIMAXFit(b *testing.B) {
	b.ReportAllocs()
	s := benchSeries()
	train := s.Values[:984]
	spec := arima.Spec{P: 1, D: 1, Q: 1, SP: 1, SD: 1, SQ: 1, S: 24}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := arima.Fit(spec, train, nil, arima.FitOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationCSSFit vs BenchmarkAblationMLEFit: the estimation
// ablation. CSS is the repo default; MLE is the exact Kalman-filter
// likelihood (statsmodels' route). Same spec, same data.
func BenchmarkAblationCSSFit(b *testing.B) {
	b.ReportAllocs()
	s := benchSeries()
	train := s.Values[:984]
	spec := arima.Spec{P: 1, D: 1, Q: 1, SP: 1, SD: 1, SQ: 1, S: 24}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := arima.Fit(spec, train, nil, arima.FitOptions{Method: arima.MethodCSS}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationMLEFit(b *testing.B) {
	b.ReportAllocs()
	s := benchSeries()
	train := s.Values[:984]
	spec := arima.Spec{P: 1, D: 1, Q: 1, SP: 1, SD: 1, SQ: 1, S: 24}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := arima.Fit(spec, train, nil, arima.FitOptions{Method: arima.MethodMLE}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationStepwiseSearch measures the Hyndman-Khandakar
// stepwise alternative to the §6.3 grids (fits ~20 models instead of
// hundreds).
func BenchmarkAblationStepwiseSearch(b *testing.B) {
	b.ReportAllocs()
	s := benchSeries()
	train := s.Values[:984]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := arima.Stepwise(train, nil, arima.StepwiseOptions{
			Seasonal: true, S: 24, SD: 1,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationHESFit isolates one Holt-Winters fit on the same data
// (the other branch of Figure 4).
func BenchmarkAblationHESFit(b *testing.B) {
	b.ReportAllocs()
	s := benchSeries()
	eng, err := core.NewEngine(core.Options{Technique: core.TechniqueHES})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Run(context.Background(), s); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFitARIMA measures one steady-state non-seasonal CSS fit the
// way the engine runs it: a reused workspace and a shared prediffed
// series, so allocations reflect the pooled hot path rather than
// first-fit warm-up. Gated against BENCH.json by `make bench-check`.
func BenchmarkFitARIMA(b *testing.B) {
	b.ReportAllocs()
	s := benchSeries()
	train := s.Values[:984]
	spec := arima.Spec{P: 2, D: 1, Q: 2}
	ws := arima.NewWorkspace()
	prediff := arima.Prediff(train, spec.D, spec.SD, spec.S)
	opt := arima.FitOptions{Workspace: ws, PrediffedY: prediff}
	if _, err := arima.Fit(spec, train, nil, opt); err != nil { // warm-up sizes the buffers
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := arima.Fit(spec, train, nil, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFitSARIMAX is the PR's headline gate: the paper's
// (1,1,1)(1,1,1,24) order fitted with workspace reuse. The acceptance
// target is >= 2x fewer allocs/op than the pre-workspace code (which
// allocated ~29k objects per fit; see EXPERIMENTS.md).
func BenchmarkFitSARIMAX(b *testing.B) {
	b.ReportAllocs()
	s := benchSeries()
	train := s.Values[:984]
	spec := arima.Spec{P: 1, D: 1, Q: 1, SP: 1, SD: 1, SQ: 1, S: 24}
	ws := arima.NewWorkspace()
	prediff := arima.Prediff(train, spec.D, spec.SD, spec.S)
	opt := arima.FitOptions{Workspace: ws, PrediffedY: prediff}
	if _, err := arima.Fit(spec, train, nil, opt); err != nil { // warm-up sizes the buffers
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := arima.Fit(spec, train, nil, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineRun measures one full Figure 4 pipeline run — analysis,
// precompute, parallel grid fit, champion, forecasts — on the shared
// 1008-point series, exercising the per-run caches and workspace pool.
func BenchmarkEngineRun(b *testing.B) {
	b.ReportAllocs()
	s := benchSeries()
	eng, err := core.NewEngine(core.Options{Technique: core.TechniqueSARIMAX, MaxCandidates: 6})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := eng.Run(context.Background(), s); err != nil { // warm-up
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Run(context.Background(), s); err != nil {
			b.Fatal(err)
		}
	}
}
