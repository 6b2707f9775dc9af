package monitor

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/timeseries"
)

// prediction builds a 6-step hourly forecast starting at t0 whose every
// value is v (no interval bounds, so the mean band is checked).
func prediction(t0 time.Time, v float64) *core.Prediction {
	mean := make([]float64, 6)
	for i := range mean {
		mean[i] = v
	}
	return &core.Prediction{Start: t0, Freq: timeseries.Hourly, Mean: mean}
}

func TestAlertStateMachine(t *testing.T) {
	t0 := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	// Each step is one Observe evaluation: true = forecast breaching.
	cases := []struct {
		name         string
		pending      int
		resolve      int
		breaches     []bool
		wantStates   []AlertState
		wantFired    bool
		wantResolved bool
	}{
		{
			name: "pending then firing then resolved", pending: 2, resolve: 2,
			breaches:     []bool{true, true, false, false},
			wantStates:   []AlertState{StatePending, StateFiring, StateFiring, StateResolved},
			wantFired:    true,
			wantResolved: true,
		},
		{
			name: "single flap never fires", pending: 2, resolve: 2,
			breaches:   []bool{true, false, true, false},
			wantStates: []AlertState{StatePending, StateInactive, StatePending, StateInactive},
		},
		{
			name: "firing survives a short dip", pending: 1, resolve: 3,
			breaches:   []bool{true, true, false, false, true},
			wantStates: []AlertState{StatePending, StateFiring, StateFiring, StateFiring, StateFiring},
			wantFired:  true,
		},
		{
			name: "resolved re-fires on a new breach", pending: 1, resolve: 1,
			breaches:     []bool{true, true, false, true, true},
			wantStates:   []AlertState{StatePending, StateFiring, StateResolved, StatePending, StateFiring},
			wantFired:    true,
			wantResolved: true,
		},
		{
			name: "clear forecasts stay inactive", pending: 2, resolve: 2,
			breaches:   []bool{false, false, false},
			wantStates: []AlertState{StateInactive, StateInactive, StateInactive},
		},
	}
	rule := Rule{Metric: "cpu", Threshold: 80, WithinHours: 24}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a := NewAlerter([]Rule{rule}, tc.pending, tc.resolve, nil)
			var fired, resolved bool
			for i, breach := range tc.breaches {
				v := 50.0
				if breach {
					v = 90.0
				}
				now := t0.Add(time.Duration(i) * time.Hour)
				a.Observe("db1/cpu", now, prediction(now, v))
				state := stateOf(t, a, tc.breaches)
				if state != tc.wantStates[i] {
					t.Fatalf("step %d: state = %v, want %v", i, state, tc.wantStates[i])
				}
				if state == StateFiring {
					fired = true
				}
				if state == StateResolved {
					resolved = true
				}
			}
			if fired != tc.wantFired {
				t.Fatalf("fired = %v, want %v", fired, tc.wantFired)
			}
			if resolved != tc.wantResolved {
				t.Fatalf("resolved = %v, want %v", resolved, tc.wantResolved)
			}
		})
	}
}

// stateOf reads the single tracked alert's state; all-clear sequences
// that never left Inactive report StateInactive.
func stateOf(t *testing.T, a *Alerter, breaches []bool) AlertState {
	t.Helper()
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, al := range a.alerts {
		return al.State
	}
	return StateInactive
}

func TestAlertRuleMatchesMetricSuffix(t *testing.T) {
	r := Rule{Metric: "cpu", Threshold: 80}
	if !r.matches("cdbm011/cpu") {
		t.Fatal("should match cpu key")
	}
	for _, key := range []string{"cdbm011/memory", "cpu", "cdbm011/cpu2"} {
		if r.matches(key) {
			t.Fatalf("should not match %q", key)
		}
	}
}

func TestAlertUsesUpperBoundWhenPresent(t *testing.T) {
	t0 := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	fc := prediction(t0, 70) // mean below threshold
	fc.Upper = []float64{75, 75, 85, 75, 75, 75}
	a := NewAlerter([]Rule{{Metric: "cpu", Threshold: 80, WithinHours: 24}}, 1, 1, nil)
	a.Observe("db1/cpu", t0, fc)
	alerts := a.Alerts()
	if len(alerts) != 1 {
		t.Fatalf("alerts = %d, want 1", len(alerts))
	}
	al := alerts[0]
	if al.State != StatePending {
		t.Fatalf("state = %v, want pending", al.State)
	}
	if want := t0.Add(2 * time.Hour); !al.BreachAt.Equal(want) {
		t.Fatalf("breach_at = %v, want %v", al.BreachAt, want)
	}
	if al.Value != 85 {
		t.Fatalf("worst value = %v, want 85", al.Value)
	}
}

// TestDriftAndCapacityAlertsCoexist drives a drift condition and a
// capacity breach on the same target through the alerter at the same
// time: both must fire, and each must resolve independently when its
// own condition clears.
func TestDriftAndCapacityAlertsCoexist(t *testing.T) {
	t0 := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	const key = "db1/cpu"
	a := NewAlerter([]Rule{{Metric: "cpu", Threshold: 80, WithinHours: 24}}, 2, 2, nil)
	now := t0
	tick := func(capacityBreach, driftActive bool) {
		v := 50.0
		if capacityBreach {
			v = 90
		}
		a.Observe(key, now, prediction(now, v))
		a.ObserveCondition(key, DriftCondition, now, driftActive, 15, now)
		now = now.Add(time.Hour)
	}
	states := func() map[string]AlertState {
		out := make(map[string]AlertState)
		for _, al := range a.Alerts() {
			out[al.Rule.Metric] = al.State
		}
		return out
	}

	// Both conditions breach long enough to fire.
	for i := 0; i < 3; i++ {
		tick(true, true)
	}
	st := states()
	if st["cpu"] != StateFiring || st[DriftCondition] != StateFiring {
		t.Fatalf("after overlapping breaches: %v, want both firing", st)
	}

	// Drift clears (refit landed) while the capacity breach holds: the
	// drift alert resolves alone.
	for i := 0; i < 3; i++ {
		tick(true, false)
	}
	st = states()
	if st["cpu"] != StateFiring {
		t.Fatalf("capacity state = %v, want still firing", st["cpu"])
	}
	if st[DriftCondition] != StateResolved {
		t.Fatalf("drift state = %v, want resolved", st[DriftCondition])
	}

	// Then the forecast clears too.
	for i := 0; i < 3; i++ {
		tick(false, false)
	}
	if st = states(); st["cpu"] != StateResolved {
		t.Fatalf("capacity state = %v, want resolved", st["cpu"])
	}

	// Two distinct rows, sorted cpu < drift, each with its own history.
	alerts := a.Alerts()
	if len(alerts) != 2 || alerts[0].Rule.Metric != "cpu" || alerts[1].Rule.Metric != DriftCondition {
		t.Fatalf("alerts = %+v, want cpu and drift rows", alerts)
	}
	for _, al := range alerts {
		if al.FiredAt.IsZero() || al.ResolvedAt.IsZero() {
			t.Errorf("%s alert missing lifecycle stamps: %+v", al.Rule.Metric, al)
		}
	}
}

func TestAlertWithinHoursLimitsLookahead(t *testing.T) {
	t0 := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	fc := prediction(t0, 50)
	fc.Mean[5] = 95 // breach 5 hours out
	a := NewAlerter([]Rule{{Metric: "cpu", Threshold: 80, WithinHours: 3}}, 1, 1, nil)
	a.Observe("db1/cpu", t0, fc)
	if got := a.Alerts(); len(got) != 0 {
		t.Fatalf("breach beyond the look-ahead should stay inactive, got %+v", got)
	}
}

// TestThreeAlertSourcesCoexist runs all three alert sources the monitor
// multiplexes onto one target — a forecast capacity rule, the drift
// detector's condition, and the planner's grow recommendation — through
// a single alerter. Their IDs must not collide (three distinct rows),
// and each must fire and resolve on its own condition only.
func TestThreeAlertSourcesCoexist(t *testing.T) {
	t0 := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	const key = "db1/cpu"
	// "plan_grow" is planner.GrowCondition; spelled out here so the
	// monitor tests don't depend on the planner package.
	const planGrow = "plan_grow"
	a := NewAlerter([]Rule{{Metric: "cpu", Threshold: 80, WithinHours: 24}}, 2, 2, nil)
	now := t0
	tick := func(capacity, drift, plan bool) {
		v := 50.0
		if capacity {
			v = 90
		}
		a.Observe(key, now, prediction(now, v))
		a.ObserveCondition(key, DriftCondition, now, drift, 15, now)
		a.ObserveCondition(key, planGrow, now, plan, 4, now)
		now = now.Add(time.Hour)
	}
	states := func() map[string]AlertState {
		out := make(map[string]AlertState)
		for _, al := range a.Alerts() {
			out[al.Rule.Metric] = al.State
		}
		return out
	}

	// All three sources active long enough to fire.
	for i := 0; i < 3; i++ {
		tick(true, true, true)
	}
	st := states()
	for _, m := range []string{"cpu", DriftCondition, planGrow} {
		if st[m] != StateFiring {
			t.Fatalf("%s state = %v, want firing (all: %v)", m, st[m], st)
		}
	}
	if len(a.Alerts()) != 3 {
		t.Fatalf("got %d alert rows, want 3 distinct (no ID collisions)", len(a.Alerts()))
	}

	// The recommendation is applied (plan clears) while capacity and
	// drift still breach: only the planner alert resolves.
	for i := 0; i < 3; i++ {
		tick(true, true, false)
	}
	st = states()
	if st[planGrow] != StateResolved {
		t.Fatalf("plan state = %v, want resolved", st[planGrow])
	}
	if st["cpu"] != StateFiring || st[DriftCondition] != StateFiring {
		t.Fatalf("capacity/drift should still fire after plan resolves: %v", st)
	}

	// Drift clears next, capacity last — each on its own schedule.
	for i := 0; i < 3; i++ {
		tick(true, false, false)
	}
	if st = states(); st[DriftCondition] != StateResolved || st["cpu"] != StateFiring {
		t.Fatalf("after drift clears: %v, want drift resolved, cpu firing", st)
	}
	for i := 0; i < 3; i++ {
		tick(false, false, false)
	}
	if st = states(); st["cpu"] != StateResolved {
		t.Fatalf("capacity state = %v, want resolved", st["cpu"])
	}

	// Every source carries its own lifecycle stamps, and the plan alert
	// resolved strictly before drift, which resolved before capacity.
	byMetric := make(map[string]Alert)
	for _, al := range a.Alerts() {
		byMetric[al.Rule.Metric] = al
	}
	for _, m := range []string{"cpu", DriftCondition, planGrow} {
		al := byMetric[m]
		if al.FiredAt.IsZero() || al.ResolvedAt.IsZero() {
			t.Errorf("%s alert missing lifecycle stamps: %+v", m, al)
		}
	}
	if !byMetric[planGrow].ResolvedAt.Before(byMetric[DriftCondition].ResolvedAt) ||
		!byMetric[DriftCondition].ResolvedAt.Before(byMetric["cpu"].ResolvedAt) {
		t.Errorf("resolution order wrong: plan=%v drift=%v cpu=%v",
			byMetric[planGrow].ResolvedAt, byMetric[DriftCondition].ResolvedAt, byMetric["cpu"].ResolvedAt)
	}
}

// TestAlertGaugesMatchRecount drives a random mix of forecast rules and
// external conditions over a few keys and checks after every evaluation
// that the firing/pending gauges equal a full recount of the alerts.
func TestAlertGaugesMatchRecount(t *testing.T) {
	o := obs.New(obs.Config{Metrics: true})
	a := NewAlerter([]Rule{{Metric: "cpu", Threshold: 80}, {Metric: "memory", Threshold: 100}}, 2, 2, o)
	rng := rand.New(rand.NewSource(1))
	keys := []string{"db1/cpu", "db2/cpu", "db1/memory", "eu/db3/cpu", "db1/logical_iops"}
	t0 := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	for step := 0; step < 2000; step++ {
		now := t0.Add(time.Duration(step) * time.Hour)
		key := keys[rng.Intn(len(keys))]
		if rng.Intn(3) == 0 {
			a.ObserveCondition(key, DriftCondition, now, rng.Intn(2) == 0, 1, now)
		} else {
			a.Observe(key, now, prediction(now, float64(rng.Intn(200))))
		}
		var firing, pending float64
		for _, al := range a.Alerts() {
			switch al.State {
			case StateFiring:
				firing++
			case StatePending:
				pending++
			}
		}
		reg := o.Registry()
		if got := reg.GaugeValue("monitor_alerts_firing"); got != firing {
			t.Fatalf("step %d: firing gauge %v, recount %v", step, got, firing)
		}
		if got := reg.GaugeValue("monitor_alerts_pending"); got != pending {
			t.Fatalf("step %d: pending gauge %v, recount %v", step, got, pending)
		}
	}
}
