package monitor

import (
	"context"
	"encoding/json"
	"math"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/timeseries"
)

// storedResult builds a hand-made engine result: a 24h hourly forecast
// of constant value v starting at t0, with the given selection RMSE.
func storedResult(t0 time.Time, v, selectionRMSE float64) *core.Result {
	mean := make([]float64, 24)
	for i := range mean {
		mean[i] = v
	}
	return &core.Result{
		TestScore: metrics.Score{RMSE: selectionRMSE},
		Forecast:  &core.Prediction{Start: t0, Freq: timeseries.Hourly, Mean: mean},
	}
}

// evalMonitor builds a Monitor with no refit hook, for tests of the
// accuracy path that drive Monitor.observe directly.
func evalMonitor(t *testing.T, store *core.ModelStore, window, minPoints int, o *obs.Observer) *Monitor {
	t.Helper()
	mon, err := New(Config{Store: store, Window: window, MinPoints: minPoints, Obs: o})
	if err != nil {
		t.Fatal(err)
	}
	return mon
}

func TestAccuracyWindowRing(t *testing.T) {
	w := newAccuracyWindow("ARIMA", 3)
	t0 := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 3; i++ {
		w.push(10, 10, t0.Add(time.Duration(i)*time.Hour))
	}
	if rmse, _, _ := w.scores(); rmse != 0 {
		t.Fatalf("perfect window rmse = %v", rmse)
	}
	// A fourth push evicts the oldest point: residuals become {6, 0, 0}.
	w.push(16, 10, t0.Add(3*time.Hour))
	if w.count != 3 || w.matched != 4 {
		t.Fatalf("count = %d, matched = %d", w.count, w.matched)
	}
	rmse, mape, mapa := w.scores()
	if want := math.Sqrt(36.0 / 3); math.Abs(rmse-want) > 1e-9 {
		t.Fatalf("rmse = %v, want %v", rmse, want)
	}
	if want := 100 * (6.0 / 16) / 3; math.Abs(mape-want) > 1e-9 {
		t.Fatalf("mape = %v, want %v", mape, want)
	}
	if math.Abs(mapa-(100-mape)) > 1e-9 {
		t.Fatalf("mapa = %v, want %v", mapa, 100-mape)
	}
}

// TestScoresDegenerateWindows is the regression guard for the NaN
// handling in accuracyWindow.scores: identical actuals, all-zero
// actuals, NaN forecast steps and denormal actuals must never produce
// a MAPA outside [0, 100], a negative ratio, or a NaN/Inf that leaks
// into the JSON payload.
func TestScoresDegenerateWindows(t *testing.T) {
	t0 := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	push := func(w *accuracyWindow, pairs ...[2]float64) {
		for i, p := range pairs {
			w.push(p[0], p[1], t0.Add(time.Duration(i)*time.Hour))
		}
	}
	newWin := func() *accuracyWindow { return newAccuracyWindow("ARIMA", 8) }

	// Identical actuals and forecasts: perfect accuracy, MAPA exactly
	// 100 — never above.
	w := newWin()
	push(w, [2]float64{50, 50}, [2]float64{50, 50}, [2]float64{50, 50})
	if rmse, mape, mapa := w.scores(); rmse != 0 || mape != 0 || mapa != 100 {
		t.Fatalf("identical window: rmse=%v mape=%v mapa=%v", rmse, mape, mapa)
	}

	// All-zero actuals: no percentage terms at all → MAPE/MAPA NaN
	// (no signal), which the JSON layer maps to zero, never negative.
	w = newWin()
	push(w, [2]float64{0, 5}, [2]float64{0, 5})
	rmse, mape, mapa := w.scores()
	if rmse != 5 || !math.IsNaN(mape) || !math.IsNaN(mapa) {
		t.Fatalf("zero-actual window: rmse=%v mape=%v mapa=%v", rmse, mape, mapa)
	}

	// A NaN forecast step is excluded rather than poisoning the window.
	w = newWin()
	push(w, [2]float64{10, math.NaN()}, [2]float64{10, 10}, [2]float64{10, 10})
	if rmse, _, mapa := w.scores(); rmse != 0 || mapa != 100 {
		t.Fatalf("NaN-forecast window: rmse=%v mapa=%v", rmse, mapa)
	}

	// A denormal actual would overflow the percentage term to +Inf; the
	// term is dropped, keeping MAPA in range instead of going negative.
	w = newWin()
	push(w, [2]float64{5e-324, 1}, [2]float64{10, 11})
	_, mape, mapa = w.scores()
	if !isFinite(mape) || mapa < 0 || mapa > 100 {
		t.Fatalf("denormal-actual window: mape=%v mapa=%v", mape, mapa)
	}

	// Nothing but NaN forecasts: no pair to score, so every score is NaN.
	w = newWin()
	push(w, [2]float64{10, math.NaN()})
	if rmse, mape, mapa := w.scores(); !math.IsNaN(rmse) || !math.IsNaN(mape) || !math.IsNaN(mapa) {
		t.Fatalf("all-NaN window: rmse=%v mape=%v mapa=%v", rmse, mape, mapa)
	}

	// Huge errors clamp MAPA at 0 rather than going negative.
	w = newWin()
	push(w, [2]float64{1, 1000})
	if _, _, mapa := w.scores(); mapa != 0 {
		t.Fatalf("huge-error window: mapa=%v, want clamped 0", mapa)
	}
}

// TestAccuracyJSONSafeOnDegenerateData walks degenerate observations
// through the full Observe → Accuracy path and asserts the payload
// marshals with finite, in-range values.
func TestAccuracyJSONSafeOnDegenerateData(t *testing.T) {
	t0 := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	store := core.NewModelStore(core.StalePolicy{DegradeFactor: 1.5})
	store.Put("db1/cpu", storedResult(t0, 100, 2))
	ev := evalMonitor(t, store, 6, 3, nil)
	// Identical actuals equal to the forecast: nothing degenerate yet,
	// then zeros (infinite percentage error) and an enormous outlier.
	vals := []float64{100, 100, 0, 0, 1e300}
	for i, v := range vals {
		ev.observe("db1/cpu", t0.Add(time.Duration(i)*time.Hour), v)
	}
	rows := ev.Accuracy()
	if len(rows) != 1 {
		t.Fatalf("rows = %d", len(rows))
	}
	r := rows[0]
	if r.RollingMAPA < 0 || r.RollingMAPA > 100 {
		t.Fatalf("rolling MAPA = %v, want within [0, 100]", r.RollingMAPA)
	}
	if r.Ratio < 0 || !isFinite(r.Ratio) {
		t.Fatalf("degradation ratio = %v, want finite and non-negative", r.Ratio)
	}
	if _, err := json.Marshal(rows); err != nil {
		t.Fatalf("accuracy payload not marshalable: %v", err)
	}
}

func TestEvaluatorDegradationTriggersInvalidation(t *testing.T) {
	t0 := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	o := obs.New(obs.Config{Metrics: true})
	store := core.NewModelStore(core.StalePolicy{DegradeFactor: 1.5})
	store.SetObserver(o)
	store.Put("db1/cpu", storedResult(t0, 100, 2)) // degrade limit: rmse > 3
	ev := evalMonitor(t, store, 6, 3, o)

	// Three accurate actuals: rolling RMSE 0, champion stays usable.
	for i := 0; i < 3; i++ {
		v := ev.observe("db1/cpu", t0.Add(time.Duration(i)*time.Hour), 100)
		if !v.matched || !v.usable {
			t.Fatalf("step %d: verdict = %+v, want matched and usable", i, v)
		}
	}
	if _, usable := store.Get("db1/cpu"); !usable {
		t.Fatal("accurate champion was invalidated")
	}

	// One wild actual pushes rolling RMSE to sqrt(400/4) = 10 > 3.
	v := ev.observe("db1/cpu", t0.Add(3*time.Hour), 120)
	if !v.matched || v.usable {
		t.Fatalf("degraded verdict = %+v, want matched and not usable", v)
	}
	sm, usable := store.Get("db1/cpu")
	if usable || !sm.Invalidated {
		t.Fatalf("store did not invalidate: usable=%v invalidated=%v", usable, sm.Invalidated)
	}
	if n := o.Registry().CounterValue("modelstore_evictions_total"); n != 1 {
		t.Fatalf("modelstore_evictions_total = %d, want 1", n)
	}

	scores := ev.Accuracy()
	if len(scores) != 1 {
		t.Fatalf("accuracy rows = %d, want 1", len(scores))
	}
	s := scores[0]
	if s.Key != "db1/cpu" || s.Family != "ARIMA" || s.Points != 4 || !s.Invalidated {
		t.Fatalf("accuracy row = %+v", s)
	}
	if math.Abs(s.RollingRMSE-10) > 1e-9 || math.Abs(s.Ratio-5) > 1e-9 {
		t.Fatalf("rolling_rmse = %v, ratio = %v; want 10 and 5", s.RollingRMSE, s.Ratio)
	}
}

func TestEvaluatorMinPointsGatesCheckIn(t *testing.T) {
	t0 := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	store := core.NewModelStore(core.StalePolicy{DegradeFactor: 1.5})
	store.Put("db1/cpu", storedResult(t0, 100, 2))
	ev := evalMonitor(t, store, 6, 4, nil)
	// Two terrible actuals — but below minPoints, so no check-in yet.
	for i := 0; i < 2; i++ {
		ev.observe("db1/cpu", t0.Add(time.Duration(i)*time.Hour), 500)
	}
	if sm, _ := store.Get("db1/cpu"); sm.Invalidated {
		t.Fatal("invalidated before minPoints matched observations")
	}
	for i := 2; i < 4; i++ {
		ev.observe("db1/cpu", t0.Add(time.Duration(i)*time.Hour), 500)
	}
	if sm, _ := store.Get("db1/cpu"); !sm.Invalidated {
		t.Fatal("not invalidated once minPoints reached")
	}
}

func TestEvaluatorUnmatchedReasons(t *testing.T) {
	t0 := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	o := obs.New(obs.Config{Metrics: true})
	store := core.NewModelStore(core.StalePolicy{})
	ev := evalMonitor(t, store, 6, 3, o)

	reason := func(r string) int64 {
		return o.Registry().Counter("monitor_actuals_unmatched_total", obs.L("reason", r)).Value()
	}

	if v := ev.observe("ghost/cpu", t0, 50); v.matched {
		t.Fatal("matched a missing model")
	}
	if n := reason("no_model"); n != 1 {
		t.Fatalf("no_model = %d", n)
	}

	store.Put("db1/cpu", &core.Result{TestScore: metrics.Score{RMSE: 2}})
	ev.observe("db1/cpu", t0, 50)
	if n := reason("no_forecast"); n != 1 {
		t.Fatalf("no_forecast = %d", n)
	}

	store.Put("db1/cpu", storedResult(t0, 100, 2))
	ev.observe("db1/cpu", t0.Add(-time.Hour), 50)
	if n := reason("before_horizon"); n != 1 {
		t.Fatalf("before_horizon = %d", n)
	}

	v := ev.observe("db1/cpu", t0.Add(24*time.Hour), 50)
	if !v.beyondHorizon || v.matched {
		t.Fatalf("beyond-horizon verdict = %+v", v)
	}
	if n := reason("beyond_horizon"); n != 1 {
		t.Fatalf("beyond_horizon = %d", n)
	}
}

// TestEvaluatorResetClearsWindow: a refit drops the accuracy window, so
// the key leaves /accuracy until the new champion's first match, while
// the calibration ring carries on across the refit.
func TestEvaluatorResetClearsWindow(t *testing.T) {
	const key = "db1/cpu"
	t0 := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	store := core.NewModelStore(core.StalePolicy{})
	store.Put(key, storedResult(t0, 100, 2))
	mon, err := New(Config{
		Store: store, Window: 6, MinPoints: 3,
		Refit: func(context.Context, string, bool) (*core.Result, error) {
			return storedResult(t0, 100, 2), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	mon.ObserveActual(context.Background(), key, t0, 100)
	if len(mon.Accuracy()) != 1 {
		t.Fatal("expected one tracked window")
	}
	mon.triggerRefit(context.Background(), key, "test")
	if got := mon.Accuracy(); len(got) != 0 {
		t.Fatalf("window survived reset: %+v", got)
	}
	if got := mon.Calibration(key); len(got) != 1 || got[0].ScoredTotal != 1 {
		t.Fatalf("calibration ring did not survive the refit: %+v", got)
	}
	mon.ObserveActual(context.Background(), key, t0.Add(time.Hour), 100)
	if got := mon.Accuracy(); len(got) != 1 || got[0].Points != 1 || got[0].MatchedTotal != 1 {
		t.Fatalf("new champion's window = %+v, want one point", got)
	}
}
