package monitor

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/timeseries"
)

var updatePinned = flag.Bool("update-pinned", false, "rewrite testdata/payloads_pinned.json from the current code")

// hesChampion is a champion whose family is HES, taken from one real
// engine run: the family is decided by unexported candidate fields, so
// a hand-made result cannot carry it. The label is overwritten so the
// pinned payloads do not depend on which HES variant the engine picks.
var hesChampion = sync.OnceValues(func() (core.CandidateResult, error) {
	t0 := time.Date(2025, 12, 1, 0, 0, 0, 0, time.UTC)
	vals := make([]float64, 14*24)
	for i := range vals {
		vals[i] = 50 + 10*float64(i%24)/24 + noise(i)
	}
	eng, err := core.NewEngine(core.Options{Technique: core.TechniqueHES, Horizon: 12, MaxCandidates: 2})
	if err != nil {
		return core.CandidateResult{}, err
	}
	res, err := eng.Run(context.Background(), timeseries.New("fixture/cpu", t0, timeseries.Hourly, vals))
	if err != nil {
		return core.CandidateResult{}, err
	}
	ch := res.Champion
	ch.Label = "HES fixture"
	return ch, nil
})

// pinnedPayloads drives one Monitor over a fixed three-key sequence and
// returns every payload it serves plus its counters and gauges, as
// indented JSON keyed by payload name. The sequence covers each
// unmatched reason, a degradation refit, a drift refit (or, with the
// detector off, the degradation refit that replaces it), a horizon
// advance, an advance error that falls back to a refit, a refit error,
// champion-family changes through a refit and through an advance, and
// the ColdRefitEvery cadence.
func pinnedPayloads(t *testing.T, driftDisabled bool) map[string]json.RawMessage {
	t.Helper()
	hes, err := hesChampion()
	if err != nil {
		t.Fatal(err)
	}
	const a, b, c = "db1/cpu", "db2/io", "db3/cpu"
	t0 := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	now := t0
	o := obs.New(obs.Config{Metrics: true})
	store := core.NewModelStore(core.StalePolicy{MaxAge: 30 * 24 * time.Hour, DegradeFactor: 2})
	store.SetObserver(o)
	store.SetClock(func() time.Time { return now })

	// cur is the latest actual per key: a refit or advance "learns" it.
	cur := map[string]float64{}
	// a's intervals are narrow next to its selection RMSE, so a shift
	// that leaves the error ratio below the degradation factor still
	// drives the drift detector.
	se := map[string]float64{a: 1, b: 10, c: 2}
	sel := map[string]float64{a: 5, b: 10, c: 2}
	refits := map[string]int{}
	fresh := func(key string, at time.Time) *core.Result {
		return storedResultWithBand(at, cur[key], se[key], sel[key], 12)
	}
	mon, err := New(Config{
		Store: store, Window: 6, MinPoints: 3, ColdRefitEvery: 3,
		Rules:        []Rule{{Metric: "cpu", Threshold: 130, WithinHours: 6}},
		PendingTicks: 2, ResolveTicks: 2,
		Drift: DriftConfig{Disabled: driftDisabled},
		Refit: func(_ context.Context, key string, warm bool) (*core.Result, error) {
			n := refits[key]
			refits[key]++
			if key == c && n == 1 {
				return nil, errors.New("refit exploded")
			}
			res := fresh(key, now)
			res.WarmStarted = warm
			if key == a && n == 1 {
				res.Champion = hes
			}
			return res, nil
		},
		Advance: func(_ context.Context, key string, at time.Time) (*core.Result, error) {
			if key == b {
				return nil, errors.New("gap in series")
			}
			res := fresh(key, at)
			if key == c {
				res.Champion = hes
			}
			store.ReplaceResult(key, res)
			return res, nil
		},
		Inventory: func() []string { return []string{"db4/cpu"} },
		Obs:       o,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	observe := func(key string, at time.Time, v float64) {
		cur[key] = v
		mon.ObserveActual(ctx, key, at, v)
	}

	// The four unmatched reasons.
	observe(a, t0, 100) // no_model
	store.Put(b, &core.Result{})
	observe(b, t0, 300) // no_forecast
	cur[a], cur[b], cur[c] = 100, 300, 50
	store.Put(a, fresh(a, t0))
	store.Put(b, fresh(b, t0))
	store.Put(c, fresh(c, t0))
	observe(a, t0.Add(-time.Hour), 100) // before_horizon
	// beyond_horizon: b's forecast runs out at hour 12, 24 and 36, and
	// every advance of b fails, so each becomes a horizon refit; the
	// third is forced cold.

	for h := 0; h <= 36; h++ {
		now = t0.Add(time.Duration(h) * time.Hour)
		jitter := func(key string, i int) float64 { return 0.5 * se[key] * noise(i) }
		// a: quiet, then a 6σ shift the drift detector catches while the
		// error ratio stays under the degradation factor, a jump past
		// the capacity rule, and a return to the old level.
		va := 100 + jitter(a, h)
		switch {
		case h >= 30:
		case h >= 17:
			va = 140 + jitter(a, h)
		case h >= 8:
			va = 106 + jitter(a, h)
		}
		observe(a, now, va)
		observe(b, now, 300+jitter(b, h+100))
		// c: a jump that degrades the champion at once, a second jump
		// whose refit fails, then a steady level the retry learns.
		vc := 50 + jitter(c, h+200)
		switch {
		case h >= 6:
			vc = 120 + jitter(c, h+200)
		case h >= 2:
			vc = 80 + jitter(c, h+200)
		}
		observe(c, now, vc)
		mon.ObserveCondition(c, "plan_grow", now, h >= 10 && h < 20, float64(h), now)
		mon.EvaluateAlerts(now.Add(time.Hour))
	}

	targets := mon.TargetsFor("")
	for i := range targets {
		// Wall time of the hook call, the one field the clock does not set.
		if targets[i].LastRefit != nil {
			targets[i].LastRefit.DurationMS = 0
		}
	}
	snap := o.Registry().Snapshot()
	out := map[string]json.RawMessage{}
	for name, v := range map[string]any{
		"accuracy":    mon.Accuracy(),
		"calibration": mon.Calibration(""),
		"targets":     targets,
		"alerts":      mon.Alerts(),
		"counters":    snap.Counters,
		"gauges":      snap.Gauges,
	} {
		raw, err := json.MarshalIndent(v, "", "  ")
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[name] = raw
	}
	return out
}

// TestMonitorPayloadsPinned pins what the monitor serves and records —
// /accuracy, /api/v1/calibration, /api/v1/targets, /alerts and the
// registry's counters and gauges — byte for byte, with the drift
// detector on and off, so a restructuring of the monitor's per-target
// state cannot move any of them. Regenerate with -update-pinned only
// when a payload is meant to change.
func TestMonitorPayloadsPinned(t *testing.T) {
	got := map[string]map[string]json.RawMessage{
		"drift_on":  pinnedPayloads(t, false),
		"drift_off": pinnedPayloads(t, true),
	}
	raw, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	raw = append(raw, '\n')
	path := filepath.Join("testdata", "payloads_pinned.json")
	if *updatePinned {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	// The sequence must exercise what it claims to pin.
	counters := string(got["drift_on"]["counters"]) + string(got["drift_off"]["counters"])
	for _, want := range []string{
		`reason=\"no_model\"`, `reason=\"no_forecast\"`,
		`reason=\"before_horizon\"`, `reason=\"beyond_horizon\"`,
		`reason=\"degraded\",refit_mode=\"warm\"`,
		`reason=\"drift\",refit_mode=\"warm\"`,
		`reason=\"horizon\",refit_mode=\"advance\"`,
		`reason=\"horizon\",refit_mode=\"warm\"`,
		`refit_mode=\"cold\"`,
		`monitor_advance_errors_total`, `monitor_refit_errors_total`,
		`monitor_drift_alarms_total`,
	} {
		if !strings.Contains(counters, want) {
			t.Errorf("sequence never produced %s", want)
		}
	}
	if acc := string(got["drift_on"]["accuracy"]); !strings.Contains(acc, `"family": "HES"`) ||
		!strings.Contains(acc, `"family": "ARIMA"`) {
		t.Errorf("sequence never changed a champion's family:\n%s", acc)
	}

	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update-pinned to record)", err)
	}
	if !bytes.Equal(raw, want) {
		var w map[string]map[string]json.RawMessage
		if err := json.Unmarshal(want, &w); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		compact := func(m json.RawMessage) string {
			var buf bytes.Buffer
			json.Compact(&buf, m) //nolint:errcheck // a malformed side just compares unequal
			return buf.String()
		}
		for run, payloads := range got {
			for name, p := range payloads {
				if g, w := compact(p), compact(w[run][name]); g != w {
					t.Errorf("%s %s differs from %s:\ngot:  %s\nwant: %s", run, name, path, g, w)
				}
			}
		}
		if !t.Failed() {
			t.Errorf("payloads differ from %s", path)
		}
	}
}
