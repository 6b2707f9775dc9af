package monitor

import (
	"math"
	"time"

	"repro/internal/metrics"
	"repro/internal/obs"
)

// accuracyWindow is the rolling residual ring for one monitored key's
// current champion.
type accuracyWindow struct {
	family    string
	actuals   []float64 // ring buffers, next points at the oldest slot
	forecasts []float64
	next      int
	count     int
	matched   int64 // lifetime matched observations
	lastAt    time.Time
}

func newAccuracyWindow(family string, n int) *accuracyWindow {
	return &accuracyWindow{family: family, actuals: make([]float64, 0, n), forecasts: make([]float64, 0, n)}
}

func (w *accuracyWindow) push(actual, forecast float64, at time.Time) {
	if len(w.actuals) < cap(w.actuals) {
		w.actuals = append(w.actuals, actual)
		w.forecasts = append(w.forecasts, forecast)
	} else {
		w.actuals[w.next] = actual
		w.forecasts[w.next] = forecast
		w.next = (w.next + 1) % cap(w.actuals)
	}
	if w.count < cap(w.actuals) {
		w.count++
	}
	w.matched++
	w.lastAt = at
}

// scores computes rolling RMSE, MAPE and MAPA over the ring's pairs
// with a finite residual: a NaN forecast step is left out rather than
// poisoning the window, and an empty set scores NaN. The metrics
// package drops percentage terms that overflow (a denormal actual) and
// keeps MAPA within [0, 100].
func (w *accuracyWindow) scores() (rmse, mape, mapa float64) {
	actual, forecast := w.actuals, w.forecasts
	for i := range actual {
		if !isFinite(actual[i] - forecast[i]) {
			actual, forecast = finitePairs(actual, forecast)
			break
		}
	}
	if len(actual) == 0 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	return metrics.RMSE(actual, forecast), metrics.MAPE(actual, forecast), metrics.MAPA(actual, forecast)
}

// finitePairs copies the pairs whose residual is finite.
func finitePairs(actual, forecast []float64) (a, f []float64) {
	for i := range actual {
		if isFinite(actual[i] - forecast[i]) {
			a = append(a, actual[i])
			f = append(f, forecast[i])
		}
	}
	return a, f
}

// row is the window's /accuracy row before the store's selection RMSE
// and the JSON clean-up are merged in.
func (w *accuracyWindow) row(key string) AccuracyScore {
	rmse, mape, mapa := w.scores()
	return AccuracyScore{
		Key: key, Family: w.family, Window: cap(w.actuals),
		Points: w.count, MatchedTotal: w.matched,
		RollingRMSE: rmse, RollingMAPE: mape, RollingMAPA: mapa,
		LastAt: w.lastAt,
	}
}

// isFinite reports whether v is neither NaN nor ±Inf.
func isFinite(v float64) bool {
	return !math.IsNaN(v) && !math.IsInf(v, 0)
}

// AccuracyScore is one row of the /accuracy endpoint: the rolling live
// accuracy of a stored champion.
type AccuracyScore struct {
	Key           string    `json:"key"`
	Family        string    `json:"family"`
	Window        int       `json:"window"`
	Points        int       `json:"points"`
	MatchedTotal  int64     `json:"matched_total"`
	RollingRMSE   float64   `json:"rolling_rmse"`
	RollingMAPE   float64   `json:"rolling_mape"`
	RollingMAPA   float64   `json:"rolling_mapa"`
	SelectionRMSE float64   `json:"selection_rmse"`
	Ratio         float64   `json:"degradation_ratio"`
	Invalidated   bool      `json:"invalidated"`
	LastAt        time.Time `json:"last_at"`
}

// obsPoint is one matched (actual, forecast step) pair, carrying the
// interval information — SE, bounds, nominal level — the calibration
// and drift layers score. It is how core's per-step interval output
// reaches the observe path.
type obsPoint struct {
	family string
	at     time.Time
	actual float64
	mean   float64
	// se is the step's forecast standard error (NaN when the champion
	// produced none); lower/upper the prediction-interval bounds at the
	// nominal level, valid only when hasBand is set.
	se           float64
	lower, upper float64
	level        float64
	hasBand      bool
}

// standardized returns the residual in forecast-SE units, the input
// the Page–Hinkley drift detector accumulates. Without a usable SE the
// residual is scaled by the forecast level's magnitude so the detector
// still sees shift-proportional evidence.
func (p obsPoint) standardized() float64 {
	resid := p.actual - p.mean
	scale := p.se
	if !isFinite(scale) || scale <= 0 {
		scale = 0.05 * math.Max(math.Abs(p.mean), 1e-9)
	}
	return resid / scale
}

// verdict reports what one observation found, for the monitor's refit
// decision.
type verdict struct {
	// matched is true when the actual aligned with a forecast step.
	matched bool
	// beyondHorizon is true when the actual falls past the stored
	// forecast's last step — the champion needs a refit to keep serving.
	beyondHorizon bool
	// usable is the store's verdict after the check-in (false once the
	// model is invalidated or age-stale).
	usable bool
	// driftAlarm is true when this observation raised a drift alarm.
	driftAlarm bool
	// point carries the matched step's interval data for the
	// calibration ring and drift detector, valid when matched.
	point obsPoint
}

// match finds the stored champion's forecast step for an actual of key
// at time `at`, counting the reason when there is none.
func (m *Monitor) match(key string, at time.Time, actual float64) verdict {
	sm, usable := m.store.Get(key)
	if sm == nil {
		m.obs.Count("monitor_actuals_unmatched_total", 1, obs.L("reason", "no_model"))
		return verdict{}
	}
	fc := sm.Result.Forecast
	if fc == nil || len(fc.Mean) == 0 {
		m.obs.Count("monitor_actuals_unmatched_total", 1, obs.L("reason", "no_forecast"))
		return verdict{usable: usable}
	}
	idx := int(at.Sub(fc.Start) / fc.Freq.Step())
	if idx < 0 {
		m.obs.Count("monitor_actuals_unmatched_total", 1, obs.L("reason", "before_horizon"))
		return verdict{usable: usable}
	}
	if idx >= len(fc.Mean) {
		m.obs.Count("monitor_actuals_unmatched_total", 1, obs.L("reason", "beyond_horizon"))
		return verdict{beyondHorizon: true, usable: usable}
	}
	point := obsPoint{
		family: sm.Result.ChampionFamily(), at: at,
		actual: actual, mean: fc.Mean[idx],
		se: math.NaN(), level: fc.Level,
	}
	if idx < len(fc.SE) {
		point.se = fc.SE[idx]
	}
	if len(fc.Lower) == len(fc.Mean) && len(fc.Upper) == len(fc.Mean) {
		point.lower, point.upper = fc.Lower[idx], fc.Upper[idx]
		point.hasBand = true
	}
	return verdict{matched: true, usable: usable, point: point}
}

// nanToZero maps non-finite values to zero — encoding/json rejects
// NaN and ±Inf, and a degenerate window must serialise as "no signal",
// never as a negative or overflowing score.
func nanToZero(v float64) float64 {
	if !isFinite(v) {
		return 0
	}
	return v
}
