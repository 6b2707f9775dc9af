// Package monitor closes the paper's Figure 4 loop as a live service:
// the model store keeps a champion "for one week or until the model's
// RMSE drops to a point where it is rendered useless", and this package
// is the part that notices. An online evaluator matches arriving actuals
// against each stored champion's production forecast and maintains
// rolling RMSE/MAPE/MAPA windows; when rolling error degrades past the
// store's StalePolicy factor the champion is invalidated and a refit is
// triggered. A capacity-headroom alerter walks each champion's forecast
// horizon and raises pending→firing→resolved alerts when a metric is
// predicted to cross its threshold within N hours — the "predict when a
// threshold is likely to be breached" early warning, run continuously.
package monitor

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// RefitFunc re-learns the champion for a key, typically by re-running
// the engine over the freshest repository window. ctx carries the
// serve loop's shutdown signal into the refit's candidate fits. warm
// asks the implementation to seed the run from the stored champion's
// parameters and prior candidate scores (core.WarmFromResult); a cold
// request (or one the implementation cannot honour — no stored model)
// runs the full grid.
type RefitFunc func(ctx context.Context, key string, warm bool) (*core.Result, error)

// AdvanceFunc rolls a stored champion's filter state forward over the
// observations accumulated since its forecast origin and regenerates the
// forecast from time `at`, without running any optimiser (the
// horizon-exhaustion fast path, core.Result.Advanced). An error tells the
// monitor to fall back to a real refit.
type AdvanceFunc func(ctx context.Context, key string, at time.Time) (*core.Result, error)

// Config assembles a Monitor.
type Config struct {
	// Store holds the champions being monitored; its StalePolicy decides
	// degradation. Required.
	Store *core.ModelStore
	// Window is the rolling accuracy window in observations (0 → 24).
	Window int
	// MinPoints gates degradation checks (0 → max(3, Window/4)).
	MinPoints int
	// Rules lists the capacity-breach conditions to watch.
	Rules []Rule
	// PendingTicks / ResolveTicks tune the alert state machine (0 → 2).
	PendingTicks, ResolveTicks int
	// Refit re-learns an invalidated or horizon-exhausted champion; nil
	// disables automatic refits (the store still marks models stale).
	Refit RefitFunc
	// Advance rolls a horizon-exhausted champion's state forward instead
	// of refitting it; nil (or an Advance error) falls back to Refit.
	Advance AdvanceFunc
	// ColdRefitEvery forces every Nth refit per key to run the full cold
	// grid as the correctness escape hatch for warm-started refits
	// (0 → 24; negative → never force, warm always requested).
	ColdRefitEvery int
	// Inventory lists every key the planner intends to model, so the
	// targets endpoint can show not-yet-trained ("warming") targets
	// alongside those with stored champions. nil limits the endpoint to
	// keys the store already holds.
	Inventory func() []string
	// Calibration tunes the online interval-calibration tracker; the
	// zero value enables it with defaults.
	Calibration CalibrationConfig
	// Drift tunes the Page–Hinkley drift detector, the second refit
	// trigger next to the RMSE degradation ratio; the zero value
	// enables it with defaults, Drift.Disabled turns it off.
	Drift DriftConfig
	// Obs receives monitor logs, gauges and counters. nil disables.
	Obs *obs.Observer
}

// Monitor is the continuous forecast-accuracy and capacity-headroom
// watchdog. Safe for concurrent use.
type Monitor struct {
	store     *core.ModelStore
	alerter   *Alerter
	refit     RefitFunc
	advance   AdvanceFunc
	coldEvery int
	inventory func() []string
	obs       *obs.Observer
	// window is the rolling accuracy length in observations; minPoints
	// how many matched points a window needs before its rolling RMSE is
	// checked into the store.
	window, minPoints int
	cal               CalibrationConfig
	drift             DriftConfig

	// mu guards targets and every record in it. It is held only to read
	// or change a record: never across a hook, a ModelStore call or an
	// obs emission.
	mu      sync.Mutex
	targets map[string]*target
}

// target is everything the monitor knows about one key.
type target struct {
	// acc scores the current champion's forecasts; nil until the first
	// match and again after each refit, so a new champion is scored
	// only against its own forecasts.
	acc *accuracyWindow
	// cal survives refits on purpose: empirical coverage is a property
	// of the interval stream across champion generations.
	cal *calWindow
	// ph is the Page–Hinkley state, created on the first finite
	// standardized residual; a refit resets its accumulator.
	ph        *phState
	lastRefit *RefitRecord
	// refitSeq numbers the key's refits for the cold-refit cadence.
	refitSeq int
}

// New validates cfg and builds a Monitor.
func New(cfg Config) (*Monitor, error) {
	if cfg.Store == nil {
		return nil, fmt.Errorf("monitor: nil model store")
	}
	coldEvery := cfg.ColdRefitEvery
	if coldEvery == 0 {
		coldEvery = 24
	} else if coldEvery < 0 {
		coldEvery = 0 // never force a cold run
	}
	window := cfg.Window
	if window <= 0 {
		window = 24
	}
	minPoints := cfg.MinPoints
	if minPoints <= 0 {
		minPoints = max(3, window/4)
	}
	return &Monitor{
		store:     cfg.Store,
		alerter:   NewAlerter(cfg.Rules, cfg.PendingTicks, cfg.ResolveTicks, cfg.Obs),
		refit:     cfg.Refit,
		advance:   cfg.Advance,
		coldEvery: coldEvery,
		inventory: cfg.Inventory,
		obs:       cfg.Obs,
		window:    window,
		minPoints: minPoints,
		cal:       cfg.Calibration,
		drift:     cfg.Drift,
		targets:   make(map[string]*target),
	}, nil
}

// targetLocked returns key's record, creating it on first use. The
// caller holds m.mu.
func (m *Monitor) targetLocked(key string) *target {
	t := m.targets[key]
	if t == nil {
		t = &target{}
		m.targets[key] = t
	}
	return t
}

// ObserveActual feeds one fresh actual for key at time `at`: the value
// is scored against the stored champion's forecast interval (rolling
// accuracy, calibration and drift), and a refit is triggered when the
// champion degraded, aged out, fell past the forecast horizon, or the
// drift detector flagged a regime shift the error ratio has not caught
// up with yet.
func (m *Monitor) ObserveActual(ctx context.Context, key string, at time.Time, actual float64) {
	if ctx == nil {
		ctx = context.Background()
	}
	v := m.observe(key, at, actual)
	switch {
	case v.beyondHorizon:
		// Horizon exhaustion does not mean the champion is wrong — only
		// that its forecast ran out. Roll the stored model's state forward
		// over the observations since the forecast origin (O(1) per point,
		// no optimiser) and fall back to a real refit only when that is
		// impossible.
		if !m.tryAdvance(ctx, key, at) {
			m.triggerRefit(ctx, key, "horizon")
		}
	case v.matched && !v.usable:
		reason := "stale"
		if sm, _ := m.store.Get(key); sm != nil && sm.Invalidated {
			reason = "degraded"
		}
		m.triggerRefit(ctx, key, reason)
	case v.driftAlarm:
		// Second refit trigger: the Page–Hinkley alarm invalidates the
		// champion through the store (so the StalePolicy's bookkeeping
		// sees the eviction) and refits immediately, typically hours
		// before the rolling-RMSE ratio crosses the degradation factor.
		m.store.Invalidate(key, "drift")
		m.triggerRefit(ctx, key, "drift")
	}
}

// observe matches one actual against key's stored champion and, when it
// lands on a forecast step, scores it into key's record: the rolling
// accuracy (checked into the store, whose StalePolicy decides
// degradation), the calibration ring and the drift detector.
func (m *Monitor) observe(key string, at time.Time, actual float64) verdict {
	v := m.match(key, at, actual)
	if !v.matched {
		return v
	}
	p := v.point
	z := p.standardized()
	driftOn := !m.drift.Disabled

	m.mu.Lock()
	t := m.targetLocked(key)
	if t.acc == nil || t.acc.family != p.family {
		t.acc = newAccuracyWindow(p.family, m.window)
	}
	t.acc.push(p.actual, p.mean, p.at)
	rmse, mape, mapa := t.acc.scores()
	points := t.acc.count
	if t.cal == nil {
		t.cal = newCalWindow(m.cal)
	}
	t.cal.observe(p)
	st := t.cal.status(key, m.cal)
	var dv DriftVerdict
	if driftOn && isFinite(z) {
		if t.ph == nil {
			t.ph = &phState{}
		}
		dv = t.ph.observe(z, at, m.drift)
	}
	drifting := t.ph != nil && t.ph.hold > 0
	m.mu.Unlock()

	kl := []obs.Label{obs.L("key", key), obs.L("family", p.family)}
	m.obs.Count("monitor_actuals_total", 1)
	m.obs.SetGauge("monitor_rolling_rmse", rmse, kl...)
	if !math.IsNaN(mape) {
		m.obs.SetGauge("monitor_rolling_mape", mape, kl...)
		m.obs.SetGauge("monitor_rolling_mapa", mapa, kl...)
	}
	if points >= m.minPoints {
		// The store's StalePolicy owns the degradation decision; it logs
		// the ratio and emits modelstore_evictions_total when it
		// invalidates.
		if stillUsable, err := m.store.CheckIn(key, rmse); err == nil {
			v.usable = stillUsable
		}
	}
	publishCalibration(m.obs, st)
	if driftOn {
		if isFinite(z) {
			publishDrift(m.obs, key, at, dv, m.drift)
		}
		// The drift condition rides the same pending→firing→resolved
		// machinery as capacity breaches, keyed under the synthetic
		// "drift" metric so both can coexist on one target.
		m.alerter.ObserveCondition(key, DriftCondition, at, dv.Active, dv.Stat, at)
	}
	if h := m.health(key, st, drifting); isFinite(h) {
		m.obs.SetGauge("forecast_health_ratio", h, obs.L("key", key))
	}
	v.driftAlarm = dv.Alarm
	return v
}

// ObserveCondition drives an externally evaluated condition — e.g. an
// active planner recommendation — through the alerter's pending→firing→
// resolved machinery, keyed under the synthetic metric `kind`. A
// recommendation that stays active (ignored) long enough escalates to
// firing exactly like a capacity breach.
func (m *Monitor) ObserveCondition(key, kind string, now time.Time, active bool, value float64, at time.Time) {
	m.alerter.ObserveCondition(key, kind, now, active, value, at)
}

// triggerRefit re-learns the champion for key, stores the replacement
// and resets the rolling window so the new model is scored afresh. A
// shutdown in progress (ctx done) skips the refit instead of starting
// a grid search that would only be aborted.
//
// The refit continues whatever trace ctx carries — when the triggering
// observation came from a remote-write batch, the monitor.refit span
// (and the engine.run nested under it) joins the trace of that batch,
// closing the push→store→observe→refit chain under one trace ID.
func (m *Monitor) triggerRefit(ctx context.Context, key, reason string) {
	if m.refit == nil {
		return
	}
	if ctx.Err() != nil {
		m.obs.Debug("refit skipped: shutting down", "key", key, "reason", reason)
		return
	}
	m.mu.Lock()
	t := m.targetLocked(key)
	t.refitSeq++
	// Every coldEvery-th refit is forced cold as the correctness escape
	// hatch for warm starts: score-guided grid shrinking never sees a
	// candidate the previous run skipped, so a periodic full grid
	// re-opens the search space.
	warm := m.coldEvery <= 0 || t.refitSeq%m.coldEvery != 0
	m.mu.Unlock()
	mode := "cold"
	if warm {
		mode = "warm"
	}
	sp := m.obs.StartSpanFrom(ctx, "monitor.refit")
	defer sp.End()
	sp.Set("key", key)
	sp.Set("reason", reason)
	sp.Set("mode", mode)
	traceID := ""
	if tsc := sp.Context(); !tsc.IsZero() {
		traceID = tsc.Trace.String()
	}
	if sp != nil {
		ctx = obs.ContextWithSpan(ctx, sp)
	}
	began := time.Now()
	res, err := m.refit(ctx, key, warm)
	if res != nil {
		// The implementation may have run cold despite a warm request
		// (e.g. nothing stored to warm-start from) — report what happened.
		mode = "cold"
		if res.WarmStarted {
			mode = "warm"
		}
		sp.Set("mode", mode)
	}
	rec := RefitRecord{
		Key: key, Reason: reason, Mode: mode, TraceID: traceID,
		At: m.store.Now(), DurationMS: float64(time.Since(began)) / float64(time.Millisecond),
	}
	if err != nil {
		sp.Fail(err)
		rec.Error = err.Error()
		m.mu.Lock()
		t.lastRefit = &rec
		m.mu.Unlock()
		m.obs.Count("monitor_refit_errors_total", 1, obs.L("key", key))
		m.obs.Error("refit failed", "key", key, "reason", reason, "err", err)
		return
	}
	rec.Champion = res.Champion.Label
	m.store.Put(key, res)
	// The new champion is scored afresh and the drift accumulator
	// restarts from its baseline; the calibration ring carries on.
	m.mu.Lock()
	t.lastRefit = &rec
	t.acc = nil
	if t.ph != nil {
		t.ph.reset()
	}
	m.mu.Unlock()
	sp.Set("champion", res.Champion.Label)
	m.obs.Count("monitor_refits_total", 1, obs.L("reason", reason), obs.L("refit_mode", mode))
	m.obs.ObserveDurationTraced("monitor_refit_seconds", time.Since(began), traceID, obs.L("refit_mode", mode))
	m.obs.Info("champion refitted", "key", key, "reason", reason, "mode", mode,
		"champion", res.Champion.Label, "rmse", res.TestScore.RMSE,
		"dur", time.Since(began).Round(time.Millisecond), "trace", traceID)
}

// tryAdvance rolls the stored champion forward for a horizon-exhausted
// key. It reports whether the advance succeeded; any failure (no advance
// hook, shutdown, no live model, a gap in the series) makes the caller
// fall back to a full refit.
func (m *Monitor) tryAdvance(ctx context.Context, key string, at time.Time) bool {
	if m.advance == nil || ctx.Err() != nil {
		return false
	}
	sp := m.obs.StartSpanFrom(ctx, "monitor.advance")
	defer sp.End()
	sp.Set("key", key)
	traceID := ""
	if tsc := sp.Context(); !tsc.IsZero() {
		traceID = tsc.Trace.String()
	}
	ctx = obs.ContextWithSpan(ctx, sp)
	began := time.Now()
	res, err := m.advance(ctx, key, at)
	if err != nil {
		sp.Fail(err)
		m.obs.Count("monitor_advance_errors_total", 1, obs.L("key", key))
		m.obs.Debug("advance failed, falling back to refit", "key", key, "err", err)
		return false
	}
	rec := RefitRecord{
		Key: key, Reason: "horizon", Mode: "advance", TraceID: traceID,
		At: m.store.Now(), DurationMS: float64(time.Since(began)) / float64(time.Millisecond),
		Champion: res.Champion.Label,
	}
	m.mu.Lock()
	m.targetLocked(key).lastRefit = &rec
	m.mu.Unlock()
	// The champion did not change: the rolling accuracy window and the
	// drift accumulator keep scoring the same model across the roll.
	sp.Set("champion", res.Champion.Label)
	m.obs.Count("monitor_refits_total", 1, obs.L("reason", "horizon"), obs.L("refit_mode", "advance"))
	m.obs.ObserveDurationTraced("monitor_refit_seconds", time.Since(began), traceID, obs.L("refit_mode", "advance"))
	m.obs.Info("champion advanced", "key", key,
		"champion", res.Champion.Label,
		"dur", time.Since(began).Round(time.Millisecond), "trace", traceID)
	return true
}

// LastRefit returns the most recent refit record for key.
func (m *Monitor) LastRefit(key string) (RefitRecord, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if t := m.targets[key]; t != nil && t.lastRefit != nil {
		return *t.lastRefit, true
	}
	return RefitRecord{}, false
}

// EvaluateAlerts walks every stored champion's forecast at time now and
// advances the alert state machines.
func (m *Monitor) EvaluateAlerts(now time.Time) {
	for _, key := range m.store.Keys() {
		sm, _ := m.store.Get(key)
		if sm == nil || sm.Result == nil {
			continue
		}
		m.alerter.Observe(key, now, sm.Result.Forecast)
	}
}

// Accuracy returns the rolling-score snapshot for every key whose
// current champion has been scored, sorted by key — the /accuracy
// payload.
func (m *Monitor) Accuracy() []AccuracyScore {
	m.mu.Lock()
	out := make([]AccuracyScore, 0, len(m.targets))
	for k, t := range m.targets {
		if t.acc != nil {
			out = append(out, t.acc.row(k))
		}
	}
	m.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	for i := range out {
		r := &out[i]
		if sm, _ := m.store.Peek(r.Key); sm != nil {
			r.SelectionRMSE = sm.SelectionRMSE
			r.Invalidated = sm.Invalidated
			if sm.SelectionRMSE > 0 && isFinite(r.RollingRMSE) {
				r.Ratio = math.Max(0, r.RollingRMSE/sm.SelectionRMSE)
			}
		}
		// encoding/json rejects NaN; empty windows serialise as zero.
		r.RollingRMSE = nanToZero(r.RollingRMSE)
		r.RollingMAPE = nanToZero(r.RollingMAPE)
		r.RollingMAPA = nanToZero(r.RollingMAPA)
	}
	return out
}

// Alerts returns the alert snapshot (the /alerts payload).
func (m *Monitor) Alerts() []Alert { return m.alerter.Alerts() }

// CalibrationPath is the forecast-health endpoint's route on the
// shared observability mux.
const CalibrationPath = "/api/v1/calibration"

// Calibration assembles the forecast-health snapshot for every scored
// key (or just `filter` when non-empty): interval calibration,
// residual diagnostics, drift state and the composite health score.
// Sorted by key; NaNs are mapped to zero for JSON.
func (m *Monitor) Calibration(filter string) []CalibrationStatus {
	m.mu.Lock()
	out := make([]CalibrationStatus, 0, len(m.targets))
	for k, t := range m.targets {
		if t.cal == nil || (filter != "" && k != filter) {
			continue
		}
		st := t.cal.status(k, m.cal)
		if t.ph != nil {
			ds := t.ph.status(k, m.drift)
			st.Drift = &ds
		}
		out = append(out, st)
	}
	m.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	for i := range out {
		st := &out[i]
		st.Health = m.health(st.Key, *st, st.Drift != nil && st.Drift.State == "drifting")
		for _, f := range []*float64{
			&st.Coverage, &st.LifetimeCoverage, &st.MeanWidth, &st.Sharpness,
			&st.PITMean, &st.Bias, &st.ACF1, &st.ACF24,
			&st.LjungBoxStat, &st.LjungBoxP, &st.Health,
		} {
			*f = nanToZero(*f)
		}
	}
	return out
}

// health computes the composite health score for key from its raw
// (NaN-preserving) calibration snapshot, the store's degradation ratio
// and whether the drift detector holds an alarm.
func (m *Monitor) health(key string, st CalibrationStatus, drifting bool) float64 {
	ratio := math.NaN()
	if sm, _ := m.store.Peek(key); sm != nil && sm.SelectionRMSE > 0 &&
		isFinite(sm.LiveRMSE) && sm.LiveRMSE >= 0 {
		ratio = sm.LiveRMSE / sm.SelectionRMSE
	}
	return healthScore(st.Coverage, st.NominalLevel, ratio, st.LjungBoxP, drifting)
}

// healthScore folds a target's quality signals into one 0–1 score:
//
//   - calibration (weight 0.4): how close empirical interval coverage
//     sits to the nominal level;
//   - accuracy (0.3): the inverse live/selection RMSE ratio, 1 while
//     the champion forecasts as well as it did at selection;
//   - whiteness (0.15): the Ljung-Box p-value — residuals that still
//     carry structure pull the score down;
//   - drift (0.15): zero while the Page–Hinkley detector holds an
//     active alarm.
//
// Components that are not yet computable (NaN) drop out and the
// weights renormalise, so a young window reports a usable score from
// whatever evidence exists. Returns NaN when no component is known.
func healthScore(coverage, nominal, ratio, ljungBoxP float64, drifting bool) float64 {
	var sum, wsum float64
	add := func(w, v float64) {
		if isFinite(v) {
			sum += w * math.Min(1, math.Max(0, v))
			wsum += w
		}
	}
	if isFinite(coverage) && nominal > 0 {
		add(0.4, 1-math.Abs(coverage-nominal)/nominal)
	}
	if isFinite(ratio) && ratio > 0 {
		add(0.3, 1/math.Max(ratio, 1))
	}
	add(0.15, ljungBoxP)
	d := 1.0
	if drifting {
		d = 0
	}
	add(0.15, d)
	if wsum == 0 {
		return math.NaN()
	}
	return sum / wsum
}

// Handlers returns the monitor's endpoint map, ready for
// obs.MuxOptions.Extra. The targets and calibration endpoints take
// ?key=target/metric to narrow the array to one target.
func (m *Monitor) Handlers() map[string]http.Handler {
	return map[string]http.Handler{
		"/alerts":   obs.JSONHandler(func(*http.Request) any { return m.Alerts() }),
		"/accuracy": obs.JSONHandler(func(*http.Request) any { return m.Accuracy() }),
		TargetsPath: obs.JSONHandler(func(req *http.Request) any {
			return m.TargetsFor(req.URL.Query().Get("key"))
		}),
		CalibrationPath: obs.JSONHandler(func(req *http.Request) any {
			return m.Calibration(req.URL.Query().Get("key"))
		}),
	}
}
