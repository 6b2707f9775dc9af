package monitor

import (
	"math"
	"time"

	"repro/internal/obs"
	"repro/internal/stats"
)

// CalibrationConfig tunes the online interval-calibration tracker.
type CalibrationConfig struct {
	// Window is the rolling calibration window in observations
	// (0 → 168, one hourly week — long enough for a stable empirical
	// coverage estimate at the 95% level).
	Window int
	// PITBins is the probability-integral-transform histogram bin count
	// (0 → 10).
	PITBins int
}

func (c CalibrationConfig) window() int {
	if c.Window <= 0 {
		return 168
	}
	return c.Window
}

func (c CalibrationConfig) pitBins() int {
	if c.PITBins <= 0 {
		return 10
	}
	return c.PITBins
}

// calPoint is one scored observation in the rolling calibration ring.
type calPoint struct {
	resid     float64
	absActual float64
	pit       float64 // NaN when the forecast step carried no SE
	width     float64 // NaN when the step carried no interval
	covered   bool
	hasBand   bool
}

// calWindow is the rolling calibration ring for one monitored key. The
// ring deliberately survives refits: empirical coverage is a property
// of the *stream* of intervals the planner acted on, across champion
// generations, not of any single model.
type calWindow struct {
	family string
	level  float64
	points []calPoint
	next   int
	count  int

	// lifetime tallies, never windowed.
	scored       int64
	bandScored   int64
	coveredTotal int64
	lastAt       time.Time
}

func newCalWindow(cfg CalibrationConfig) *calWindow {
	return &calWindow{points: make([]calPoint, 0, cfg.window())}
}

// observe scores one matched observation into the ring.
func (w *calWindow) observe(p obsPoint) {
	cp := calPoint{
		resid:     p.actual - p.mean,
		absActual: math.Abs(p.actual),
		pit:       math.NaN(),
		width:     math.NaN(),
	}
	if isFinite(p.se) && p.se > 0 {
		cp.pit = stats.NormalCDF((p.actual - p.mean) / p.se)
	}
	if p.hasBand {
		cp.hasBand = true
		cp.width = p.upper - p.lower
		cp.covered = p.actual >= p.lower && p.actual <= p.upper
	}
	w.family = p.family
	w.level = p.level
	w.push(cp, p.at)
}

func (w *calWindow) push(p calPoint, at time.Time) {
	if len(w.points) < cap(w.points) {
		w.points = append(w.points, p)
	} else {
		w.points[w.next] = p
		w.next = (w.next + 1) % cap(w.points)
	}
	if w.count < cap(w.points) {
		w.count++
	}
	w.scored++
	if p.hasBand {
		w.bandScored++
		if p.covered {
			w.coveredTotal++
		}
	}
	w.lastAt = at
}

// ordered returns the ring's residuals oldest-first — the order the
// autocorrelation diagnostics need.
func (w *calWindow) ordered(dst []float64) []float64 {
	dst = dst[:0]
	if w.count == cap(w.points) && cap(w.points) > 0 {
		for i := w.next; i < w.count; i++ {
			dst = append(dst, w.points[i].resid)
		}
		for i := 0; i < w.next; i++ {
			dst = append(dst, w.points[i].resid)
		}
		return dst
	}
	for i := 0; i < w.count; i++ {
		dst = append(dst, w.points[i].resid)
	}
	return dst
}

// CalibrationStatus is one row of /api/v1/calibration: how well one
// target's prediction intervals have matched reality, plus the
// residual diagnostics and drift state that explain why.
type CalibrationStatus struct {
	Key    string `json:"key"`
	Family string `json:"family"`
	// NominalLevel is the configured interval level (e.g. 0.95);
	// Coverage the rolling empirical fraction of actuals inside
	// [lower, upper]. A healthy target keeps them close.
	NominalLevel     float64 `json:"nominal_level"`
	Coverage         float64 `json:"coverage_ratio"`
	LifetimeCoverage float64 `json:"lifetime_coverage_ratio"`
	Window           int     `json:"window"`
	Points           int     `json:"points"`
	ScoredTotal      int64   `json:"scored_total"`
	// MeanWidth is the rolling mean interval width in the metric's
	// units; Sharpness normalises it by the mean |actual| so widths are
	// comparable across CPU-percent and IOPS-count targets.
	MeanWidth float64 `json:"mean_interval_width"`
	Sharpness float64 `json:"sharpness_ratio"`
	// PITMean and PITHist summarise the probability integral transform
	// Φ((actual−mean)/se): uniform (mean ≈ 0.5, flat histogram) for a
	// well-specified forecast, U-shaped when intervals are too narrow,
	// humped when too wide.
	PITMean float64 `json:"pit_mean"`
	PITHist []int   `json:"pit_hist"`
	// Residual diagnostics over the rolling window: systematic bias,
	// short- and season-lag autocorrelation, and the Ljung-Box
	// portmanteau test (a small p-value means the residuals still carry
	// structure the champion failed to learn).
	Bias         float64 `json:"residual_bias"`
	ACF1         float64 `json:"residual_acf1"`
	ACF24        float64 `json:"residual_acf24"`
	LjungBoxStat float64 `json:"ljung_box_stat"`
	LjungBoxP    float64 `json:"ljung_box_p"`
	// Drift is the Page–Hinkley detector state, nil when disabled.
	Drift *DriftStatus `json:"drift,omitempty"`
	// Health is the composite 0–1 forecast-health score (see
	// healthScore), NaN-free for JSON.
	Health float64   `json:"health_ratio"`
	LastAt time.Time `json:"last_at"`
}

// publishCalibration refreshes a key's calibration gauges from its
// snapshot; statistics not yet computable are left unset.
func publishCalibration(o *obs.Observer, st CalibrationStatus) {
	kl := []obs.Label{obs.L("key", st.Key)}
	if !math.IsNaN(st.Coverage) {
		o.SetGauge("forecast_interval_coverage_ratio", st.Coverage, kl...)
	}
	if !math.IsNaN(st.MeanWidth) {
		o.SetGauge("forecast_interval_width_mean", st.MeanWidth, kl...)
	}
	if !math.IsNaN(st.Sharpness) {
		o.SetGauge("forecast_sharpness_ratio", st.Sharpness, kl...)
	}
	if !math.IsNaN(st.PITMean) {
		o.SetGauge("forecast_pit_mean", st.PITMean, kl...)
	}
	o.SetGauge("forecast_residual_bias", st.Bias, kl...)
	if !math.IsNaN(st.ACF1) {
		o.SetGauge("forecast_residual_acf1", st.ACF1, kl...)
	}
	if !math.IsNaN(st.LjungBoxP) {
		o.SetGauge("forecast_residual_ljung_box_p", st.LjungBoxP, kl...)
	}
}

// status assembles the ring's snapshot for key. Statistics that need
// more points than the ring holds come back NaN; the JSON layer
// sanitises them.
func (w *calWindow) status(key string, cfg CalibrationConfig) CalibrationStatus {
	st := CalibrationStatus{
		Key: key, Family: w.family, NominalLevel: w.level,
		Window: cfg.window(), Points: w.count, ScoredTotal: w.scored,
		Coverage: math.NaN(), LifetimeCoverage: math.NaN(),
		MeanWidth: math.NaN(), Sharpness: math.NaN(), PITMean: math.NaN(),
		ACF1: math.NaN(), ACF24: math.NaN(),
		LjungBoxStat: math.NaN(), LjungBoxP: math.NaN(),
		Health: math.NaN(), LastAt: w.lastAt,
	}
	bins := cfg.pitBins()
	st.PITHist = make([]int, bins)

	var residSum, widthSum, absSum, pitSum float64
	var bandN, pitN int
	covered := 0
	for i := 0; i < w.count; i++ {
		p := w.points[i]
		residSum += p.resid
		absSum += p.absActual
		if p.hasBand {
			bandN++
			widthSum += p.width
			if p.covered {
				covered++
			}
		}
		if !math.IsNaN(p.pit) {
			pitN++
			pitSum += p.pit
			b := int(p.pit * float64(bins))
			if b >= bins {
				b = bins - 1
			}
			if b < 0 {
				b = 0
			}
			st.PITHist[b]++
		}
	}
	if w.count > 0 {
		st.Bias = residSum / float64(w.count)
	}
	if bandN > 0 {
		st.Coverage = float64(covered) / float64(bandN)
		st.MeanWidth = widthSum / float64(bandN)
		if absSum > 0 {
			st.Sharpness = widthSum / float64(bandN) / (absSum / float64(w.count))
		}
	}
	if w.bandScored > 0 {
		st.LifetimeCoverage = float64(w.coveredTotal) / float64(w.bandScored)
	}
	if pitN > 0 {
		st.PITMean = pitSum / float64(pitN)
	}

	// Autocorrelation diagnostics need a chronological series and a few
	// spare points past the probed lag.
	if w.count >= 8 {
		resid := w.ordered(make([]float64, 0, w.count))
		maxLag := 24
		if maxLag > w.count/2 {
			maxLag = w.count / 2
		}
		acf := stats.ACF(resid, maxLag)
		if len(acf) > 1 {
			st.ACF1 = acf[1]
		}
		if len(acf) > 24 {
			st.ACF24 = acf[24]
		}
		lb := stats.LjungBox(resid, maxLag, 0)
		st.LjungBoxStat = lb.Stat
		st.LjungBoxP = lb.PValue
	}
	return st
}
