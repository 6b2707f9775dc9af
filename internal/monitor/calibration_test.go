package monitor

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/obs"
)

// gnoise returns a fixed-seed standard-normal stream — unlike noise(),
// its draws are serially independent, which the autocorrelation
// diagnostics in these tests require.
func gnoise() func() float64 {
	r := rand.New(rand.NewSource(42))
	return r.NormFloat64
}

// calObs builds a scored observation with a symmetric 95% band around
// the mean: lower/upper = mean ± 1.96·se.
func calObs(i int, actual, mean, se float64) obsPoint {
	t0 := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	return obsPoint{
		family: "arima", at: t0.Add(time.Duration(i) * time.Hour),
		actual: actual, mean: mean, se: se,
		lower: mean - 1.96*se, upper: mean + 1.96*se,
		level: 0.95, hasBand: true,
	}
}

func TestCalibratorCoverageAndWidth(t *testing.T) {
	o := obs.New(obs.Config{Metrics: true})
	cfg := CalibrationConfig{Window: 100}
	c := newCalWindow(cfg)
	// 80 actuals inside the band, 20 outside → coverage 0.80 exactly.
	for i := 0; i < 100; i++ {
		actual := 50.0
		if i%5 == 0 {
			actual = 80 // far outside mean 50 ± 1.96·4
		}
		c.observe(calObs(i, actual, 50, 4))
	}
	st := c.status("db1/cpu", cfg)
	publishCalibration(o, st)
	if st.Coverage != 0.80 {
		t.Fatalf("coverage = %v, want 0.80", st.Coverage)
	}
	if st.LifetimeCoverage != 0.80 {
		t.Fatalf("lifetime coverage = %v, want 0.80", st.LifetimeCoverage)
	}
	if want := 2 * 1.96 * 4.0; math.Abs(st.MeanWidth-want) > 1e-9 {
		t.Fatalf("mean width = %v, want %v", st.MeanWidth, want)
	}
	// Sharpness = mean width / mean |actual|; mean actual = 0.8·50+0.2·80 = 56.
	if want := 2 * 1.96 * 4.0 / 56.0; math.Abs(st.Sharpness-want) > 1e-9 {
		t.Fatalf("sharpness = %v, want %v", st.Sharpness, want)
	}
	if st.Points != 100 || st.ScoredTotal != 100 || st.NominalLevel != 0.95 {
		t.Fatalf("points/scored/level = %d/%d/%v", st.Points, st.ScoredTotal, st.NominalLevel)
	}
	if g := o.Registry().GaugeValue("forecast_interval_coverage_ratio"); g != 0.80 {
		t.Fatalf("forecast_interval_coverage_ratio gauge = %v, want 0.80", g)
	}
}

func TestCalibratorPITUniformOnWellSpecified(t *testing.T) {
	cfg := CalibrationConfig{Window: 500, PITBins: 10}
	c := newCalWindow(cfg)
	// Residuals drawn (deterministically) from exactly the forecast
	// distribution N(0, se²) → PIT values uniform on (0,1).
	se, g := 5.0, gnoise()
	for i := 0; i < 500; i++ {
		c.observe(calObs(i, 100+se*g(), 100, se))
	}
	st := c.status("db1/cpu", cfg)
	if math.Abs(st.PITMean-0.5) > 0.02 {
		t.Fatalf("PIT mean = %v, want ~0.5", st.PITMean)
	}
	// Flat histogram: every decile holds ~50 of 500.
	for b, n := range st.PITHist {
		if n < 35 || n > 65 {
			t.Fatalf("PIT bin %d holds %d of 500, want ~50 (hist %v)", b, n, st.PITHist)
		}
	}
	// 95% nominal coverage within ±5pp on a well-specified series.
	if math.Abs(st.Coverage-0.95) > 0.05 {
		t.Fatalf("coverage = %v, want 0.95 ± 0.05", st.Coverage)
	}
	// White residuals: no material autocorrelation, Ljung-Box does not
	// reject.
	if math.Abs(st.ACF1) > 0.15 {
		t.Fatalf("ACF1 = %v on white residuals", st.ACF1)
	}
	if st.LjungBoxP < 0.01 {
		t.Fatalf("Ljung-Box p = %v on white residuals, want > 0.01", st.LjungBoxP)
	}
}

func TestCalibratorFlagsAutocorrelatedResiduals(t *testing.T) {
	cfg := CalibrationConfig{Window: 300}
	c := newCalWindow(cfg)
	// AR(1) residuals with φ=0.8: strong structure the champion missed.
	r, g := 0.0, gnoise()
	for i := 0; i < 300; i++ {
		r = 0.8*r + g()
		c.observe(calObs(i, 100+r, 100, 1))
	}
	st := c.status("db1/cpu", cfg)
	if st.ACF1 < 0.5 {
		t.Fatalf("ACF1 = %v on AR(1) φ=0.8 residuals, want > 0.5", st.ACF1)
	}
	if st.LjungBoxP > 1e-6 {
		t.Fatalf("Ljung-Box p = %v on AR(1) residuals, want ~0", st.LjungBoxP)
	}
}

func TestCalibratorBiasAndRollingWindow(t *testing.T) {
	cfg := CalibrationConfig{Window: 10}
	c := newCalWindow(cfg)
	// 20 points: first 10 with residual −5, last 10 with residual +3.
	// A window of 10 must only see the last 10.
	for i := 0; i < 10; i++ {
		c.observe(calObs(i, 95, 100, 2))
	}
	for i := 10; i < 20; i++ {
		c.observe(calObs(i, 103, 100, 2))
	}
	st := c.status("k", cfg)
	if st.Points != 10 || st.Window != 10 {
		t.Fatalf("points/window = %d/%d, want 10/10", st.Points, st.Window)
	}
	if math.Abs(st.Bias-3) > 1e-9 {
		t.Fatalf("rolling bias = %v, want +3 (window must drop the old −5 run)", st.Bias)
	}
	if st.ScoredTotal != 20 {
		t.Fatalf("lifetime scored = %d, want 20", st.ScoredTotal)
	}
	// residual +3 vs band 100 ± 3.92: covered → rolling coverage 1.0,
	// while lifetime coverage remembers the 10 uncovered −5 residuals.
	if st.Coverage != 1.0 {
		t.Fatalf("rolling coverage = %v, want 1.0", st.Coverage)
	}
	if st.LifetimeCoverage != 0.5 {
		t.Fatalf("lifetime coverage = %v, want 0.5", st.LifetimeCoverage)
	}
}

func TestCalWindowOrderedReconstruction(t *testing.T) {
	w := &calWindow{points: make([]calPoint, 0, 4)}
	at := time.Now()
	for i := 1; i <= 6; i++ {
		w.push(calPoint{resid: float64(i)}, at)
	}
	got := w.ordered(nil)
	want := []float64{3, 4, 5, 6}
	if len(got) != len(want) {
		t.Fatalf("ordered = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ordered = %v, want %v", got, want)
		}
	}
}

func TestCalibratorNoBandNoSE(t *testing.T) {
	cfg := CalibrationConfig{}
	c := newCalWindow(cfg)
	c.observe(obsPoint{family: "ets", at: time.Now(), actual: 10, mean: 12, se: math.NaN()})
	st := c.status("k", cfg)
	if !math.IsNaN(st.Coverage) || !math.IsNaN(st.MeanWidth) || !math.IsNaN(st.PITMean) {
		t.Fatalf("bandless observation produced coverage/width/PIT: %+v", st)
	}
	if math.Abs(st.Bias-(-2)) > 1e-9 {
		t.Fatalf("bias = %v, want -2 (residuals still tracked without a band)", st.Bias)
	}
}
