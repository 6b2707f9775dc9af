package monitor

import (
	"context"
	"encoding/json"
	"math"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/timeseries"
)

// storedResultWithBand builds a hand-made champion whose hourly
// forecast is the constant v with per-step standard error se and a
// symmetric 95% interval v ± 1.96·se — the shape the calibration and
// drift layers score.
func storedResultWithBand(t0 time.Time, v, se, selectionRMSE float64, horizon int) *core.Result {
	mean := make([]float64, horizon)
	ses := make([]float64, horizon)
	lower := make([]float64, horizon)
	upper := make([]float64, horizon)
	for i := range mean {
		mean[i] = v
		ses[i] = se
		lower[i] = v - 1.96*se
		upper[i] = v + 1.96*se
	}
	return &core.Result{
		TestScore: metrics.Score{RMSE: selectionRMSE},
		Forecast: &core.Prediction{
			Start: t0, Freq: timeseries.Hourly, Level: 0.95,
			Mean: mean, SE: ses, Lower: lower, Upper: upper,
		},
	}
}

// TestDriftRefitPreemptsRMSERefit is the ISSUE's acceptance check: on
// the same deterministic feed — a +2.2σ level shift at hour 6 — the
// Page–Hinkley trigger must refit strictly earlier (in simulated
// hours) than the rolling-RMSE degradation trigger alone. The shift is
// sized so per-hour residuals stay below the degradation threshold for
// a long stretch (rolling RMSE crosses 2× selection RMSE only once the
// window saturates with shifted points) while the PH statistic
// accumulates the sustained small evidence much sooner.
func TestDriftRefitPreemptsRMSERefit(t *testing.T) {
	const key = "db1/cpu"
	t0 := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

	run := func(driftDisabled bool) (refitHour int, reason string) {
		now := t0
		o := obs.New(obs.Config{Metrics: true})
		store := core.NewModelStore(core.StalePolicy{MaxAge: 30 * 24 * time.Hour, DegradeFactor: 2})
		store.SetObserver(o)
		store.SetClock(func() time.Time { return now })
		store.Put(key, storedResultWithBand(t0, 100, 5, 5, 72))
		mon, err := New(Config{
			Store: store, Window: 24, MinPoints: 3,
			Drift: DriftConfig{Disabled: driftDisabled},
			Refit: func(ctx context.Context, k string, warm bool) (*core.Result, error) {
				// The refitted champion has learned the shifted regime, so
				// the replay records only the *first* trigger.
				return storedResultWithBand(now, 111, 5, 5, 72), nil
			},
			Obs: o,
		})
		if err != nil {
			t.Fatal(err)
		}
		refitHour = -1
		for h := 0; h < 72 && refitHour < 0; h++ {
			v := 100.0
			if h >= 6 {
				v = 111 // residual 11 on SE 5: z = 2.2
			}
			mon.ObserveActual(context.Background(), key, now, v)
			if rec, ok := mon.LastRefit(key); ok {
				refitHour, reason = h, rec.Reason
			}
			now = now.Add(time.Hour)
		}
		return refitHour, reason
	}

	driftHour, driftReason := run(false)
	rmseHour, rmseReason := run(true)
	if driftHour < 0 || rmseHour < 0 {
		t.Fatalf("a trigger never fired: drift hour %d, rmse hour %d", driftHour, rmseHour)
	}
	if driftReason != "drift" {
		t.Errorf("drift-enabled refit reason = %q, want drift", driftReason)
	}
	if rmseReason != "degraded" {
		t.Errorf("drift-disabled refit reason = %q, want degraded", rmseReason)
	}
	if driftHour >= rmseHour {
		t.Fatalf("drift refit at hour %d, RMSE refit at hour %d: want strictly earlier", driftHour, rmseHour)
	}
	t.Logf("shift at hour 6: drift trigger refit at hour %d, RMSE-ratio trigger at hour %d (%d hours earlier)",
		driftHour, rmseHour, rmseHour-driftHour)
}

// TestStationarySeriesCalibratedAndSilent is the acceptance check's
// control arm: on a well-specified stationary series (actuals drawn
// from exactly the forecast distribution) a week of observations must
// produce zero drift alarms, zero refits, empirical 95% coverage
// within ±5pp, and a live forecast_interval_coverage_ratio gauge — all
// visible on /api/v1/calibration.
func TestStationarySeriesCalibratedAndSilent(t *testing.T) {
	const key = "db1/cpu"
	t0 := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	now := t0
	o := obs.New(obs.Config{Metrics: true})
	store := core.NewModelStore(core.StalePolicy{MaxAge: 30 * 24 * time.Hour, DegradeFactor: 2})
	store.SetObserver(o)
	store.SetClock(func() time.Time { return now })
	store.Put(key, storedResultWithBand(t0, 100, 5, 5, 200))

	refits := 0
	mon, err := New(Config{
		Store: store, Window: 24, MinPoints: 3,
		Refit: func(context.Context, string, bool) (*core.Result, error) {
			refits++
			return storedResultWithBand(now, 100, 5, 5, 200), nil
		},
		Obs: o,
	})
	if err != nil {
		t.Fatal(err)
	}

	g := gnoise()
	for h := 0; h < 168; h++ {
		mon.ObserveActual(context.Background(), key, now, 100+5*g())
		now = now.Add(time.Hour)
	}

	if refits != 0 {
		t.Errorf("refits on a stationary series = %d, want 0", refits)
	}
	reg := o.Registry()
	if n := reg.CounterValue("monitor_drift_alarms_total"); n != 0 {
		t.Errorf("monitor_drift_alarms_total = %d, want 0", n)
	}
	if cov := reg.GaugeValue("forecast_interval_coverage_ratio"); math.Abs(cov-0.95) > 0.05 {
		t.Errorf("coverage gauge = %v, want 0.95 ± 0.05", cov)
	}
	if h := reg.GaugeValue("forecast_health_ratio"); h < 0.7 || h > 1 {
		t.Errorf("forecast_health_ratio = %v, want in [0.7, 1] on a healthy target", h)
	}

	// The same story over the endpoint, both unfiltered and filtered.
	rr := httptest.NewRecorder()
	mon.Handlers()[CalibrationPath].ServeHTTP(rr, httptest.NewRequest("GET", CalibrationPath+"?key="+key, nil))
	var rows []CalibrationStatus
	if err := json.Unmarshal(rr.Body.Bytes(), &rows); err != nil {
		t.Fatalf("calibration payload not JSON: %v\n%s", err, rr.Body.String())
	}
	if len(rows) != 1 || rows[0].Key != key {
		t.Fatalf("calibration rows = %+v", rows)
	}
	row := rows[0]
	if math.Abs(row.Coverage-0.95) > 0.05 {
		t.Errorf("endpoint coverage = %v, want 0.95 ± 0.05", row.Coverage)
	}
	if row.NominalLevel != 0.95 || row.Points != 168 {
		t.Errorf("nominal/points = %v/%d, want 0.95/168", row.NominalLevel, row.Points)
	}
	if math.Abs(row.PITMean-0.5) > 0.05 {
		t.Errorf("PIT mean = %v, want ~0.5", row.PITMean)
	}
	if row.Health < 0.7 || row.Health > 1 {
		t.Errorf("health = %v, want in [0.7, 1]", row.Health)
	}
	if row.Drift == nil || row.Drift.State != "watching" || row.Drift.Alarms != 0 {
		t.Errorf("drift block = %+v, want quiet watching state", row.Drift)
	}
	if got := mon.Calibration("no/such"); len(got) != 0 {
		t.Errorf("filter for unknown key returned %+v", got)
	}
	t.Logf("stationary week: coverage %.3f, PIT mean %.3f, health %.3f, drift alarms %d",
		row.Coverage, row.PITMean, row.Health, row.Drift.Alarms)
}
