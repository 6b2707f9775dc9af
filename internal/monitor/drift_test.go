package monitor

import (
	"context"
	"math"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/stats"
)

// noise returns a deterministic standard-normal-ish sequence via the
// probability integral transform of a low-discrepancy (Weyl) sequence —
// reproducible across runs and platforms, with the right moments.
func noise(i int) float64 {
	u := math.Mod(float64(i+1)*0.6180339887498949, 1)
	// Keep the quantile finite at the sequence edges.
	u = math.Min(math.Max(u, 1e-6), 1-1e-6)
	return stats.NormalQuantile(u)
}

func TestDriftDetectorSilentOnStationaryNoise(t *testing.T) {
	o := obs.New(obs.Config{Metrics: true})
	var cfg DriftConfig
	d := &phState{}
	t0 := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 1000; i++ {
		at := t0.Add(time.Duration(i) * time.Hour)
		v := d.observe(noise(i), at, cfg)
		publishDrift(o, "db1/cpu", at, v, cfg)
		if v.Alarm || v.Active {
			t.Fatalf("alarm on stationary noise at step %d (stat %.2f)", i, v.Stat)
		}
	}
	st := d.status("db1/cpu", cfg)
	if st.Alarms != 0 || st.State != "watching" {
		t.Fatalf("status = %+v, want watching with 0 alarms", st)
	}
	if n := o.Registry().CounterValue("monitor_drift_alarms_total"); n != 0 {
		t.Fatalf("monitor_drift_alarms_total = %d, want 0", n)
	}
}

func TestDriftDetectorAlarmsOnMeanShift(t *testing.T) {
	for _, dir := range []float64{+1, -1} {
		var cfg DriftConfig
		d := &phState{}
		t0 := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
		for i := 0; i < 48; i++ {
			if v := d.observe(noise(i), t0.Add(time.Duration(i)*time.Hour), cfg); v.Alarm {
				t.Fatalf("dir %+.0f: premature alarm at warm-up step %d", dir, i)
			}
		}
		// A 4-sigma mean shift (either direction) must alarm within a
		// few hours: per-step evidence ≈ 4−δ, λ=12 → 4–5 steps.
		alarmAt := -1
		for i := 0; i < 12; i++ {
			v := d.observe(dir*4+noise(48+i), t0.Add(time.Duration(48+i)*time.Hour), cfg)
			if v.Alarm {
				alarmAt = i
				break
			}
		}
		if alarmAt < 0 {
			t.Fatalf("dir %+.0f: no alarm within 12 shifted hours", dir)
		}
		if alarmAt > 8 {
			t.Errorf("dir %+.0f: alarm took %d shifted hours, want <= 8", dir, alarmAt)
		}
		st := d.status("db1/cpu", cfg)
		if st.Alarms != 1 || st.State != "drifting" || st.LastAlarmAt.IsZero() {
			t.Fatalf("dir %+.0f: status after alarm = %+v", dir, st)
		}
	}
}

func TestDriftDetectorHoldAndReset(t *testing.T) {
	cfg := DriftConfig{MinPoints: 3, Lambda: 5, HoldTicks: 3}
	d := &phState{}
	t0 := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	at := func(i int) time.Time { return t0.Add(time.Duration(i) * time.Hour) }
	// Quiet warm-up so the detector's running mean settles near zero;
	// only then does a sustained 3-sigma offset register as a change.
	for i := 0; i < 12; i++ {
		d.observe(noise(i), at(i), cfg)
	}
	var alarmed bool
	i := 12
	for ; i < 32 && !alarmed; i++ {
		alarmed = d.observe(3+noise(i), at(i), cfg).Alarm
	}
	if !alarmed {
		t.Fatal("sustained 3-sigma shift never alarmed")
	}
	// The alarm resets the accumulator (the refit path also calls
	// reset); the condition stays Active for HoldTicks observations so
	// the alerter can promote pending → firing, then clears.
	d.reset()
	held := 0
	for j := 0; j < 6; j++ {
		if d.observe(noise(j), at(i+j), cfg).Active {
			held++
		} else {
			break
		}
	}
	if held != 3 {
		t.Fatalf("condition held for %d observations, want 3", held)
	}
	if st := d.status("db1/cpu", cfg); st.State != "watching" {
		t.Fatalf("state after hold drained = %q, want watching", st.State)
	}
}

// TestDriftDetectorIgnoresNonFinite: a residual that is not finite in
// SE units (a NaN or infinite actual) never reaches the Page–Hinkley
// state, so no state is created and nothing alarms.
func TestDriftDetectorIgnoresNonFinite(t *testing.T) {
	const key = "db1/cpu"
	t0 := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	o := obs.New(obs.Config{Metrics: true})
	store := core.NewModelStore(core.StalePolicy{MaxAge: 30 * 24 * time.Hour})
	store.Put(key, storedResultWithBand(t0, 100, 5, 5, 24))
	mon, err := New(Config{Store: store, Obs: o})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		mon.ObserveActual(context.Background(), key, t0.Add(time.Duration(i)*time.Hour), v)
	}
	rows := mon.Calibration(key)
	if len(rows) != 1 || rows[0].ScoredTotal != 3 {
		t.Fatalf("calibration rows = %+v, want the three observations scored", rows)
	}
	if rows[0].Drift != nil {
		t.Fatalf("non-finite residuals were accumulated: %+v", *rows[0].Drift)
	}
	if n := o.Registry().CounterValue("monitor_drift_alarms_total"); n != 0 {
		t.Fatalf("monitor_drift_alarms_total = %d, want 0", n)
	}
}
