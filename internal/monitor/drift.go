package monitor

import (
	"math"
	"time"

	"repro/internal/obs"
)

// DriftCondition is the synthetic alert "metric" drift events are
// keyed under in the alerter, so a drift incident walks the same
// pending→firing→resolved state machine as a capacity breach and
// shows up on /alerts next to it.
const DriftCondition = "drift"

// DriftConfig tunes the Page–Hinkley change detector that watches each
// target's standardized forecast residuals. The detector subtracts its
// own running mean, so a constant model bias does not accumulate —
// only a *change* in the residual mean (a regime shift the champion
// has not learned) drives the statistic toward Lambda.
type DriftConfig struct {
	// Disabled turns the detector off (no drift refits, no drift alerts).
	Disabled bool
	// Delta is the drift tolerance in standardized-residual units:
	// per-step deviations below Delta never accumulate (0 → 0.25).
	Delta float64
	// Lambda is the alarm threshold on the Page–Hinkley statistic
	// (0 → 12). Smaller fires faster but risks false alarms.
	Lambda float64
	// MinPoints is the warm-up: no alarms before this many residuals
	// have been scored since the last reset (0 → 6).
	MinPoints int
	// HoldTicks keeps the drift condition reported active for this many
	// observations after an alarm, long enough for the alerter's
	// pending→firing promotion to see a sustained breach (0 → 4).
	HoldTicks int
}

func (c DriftConfig) delta() float64 {
	if c.Delta <= 0 {
		return 0.25
	}
	return c.Delta
}

func (c DriftConfig) lambda() float64 {
	if c.Lambda <= 0 {
		return 12
	}
	return c.Lambda
}

func (c DriftConfig) minPoints() int {
	if c.MinPoints <= 0 {
		return 6
	}
	return c.MinPoints
}

func (c DriftConfig) holdTicks() int {
	if c.HoldTicks <= 0 {
		return 4
	}
	return c.HoldTicks
}

// phState is the per-key two-sided Page–Hinkley accumulator.
type phState struct {
	n    int
	mean float64
	// cumUp tracks Σ(z−z̄−δ) with its running minimum: an upward mean
	// shift lifts cumUp away from minUp. cumDown/maxDown mirror it for
	// downward shifts.
	cumUp, minUp     float64
	cumDown, maxDown float64

	hold        int
	alarms      int64
	lastAlarmAt time.Time
	lastStat    float64
}

// observe feeds one finite standardized residual at time `at` and
// reports whether the accumulated evidence crossed the alarm threshold.
// An alarm resets the accumulator so one shift raises one alarm, not
// one per subsequent hour.
func (s *phState) observe(z float64, at time.Time, cfg DriftConfig) DriftVerdict {
	s.n++
	s.mean += (z - s.mean) / float64(s.n)
	delta := cfg.delta()
	s.cumUp += z - s.mean - delta
	if s.cumUp < s.minUp {
		s.minUp = s.cumUp
	}
	s.cumDown += z - s.mean + delta
	if s.cumDown > s.maxDown {
		s.maxDown = s.cumDown
	}
	stat := math.Max(s.cumUp-s.minUp, s.maxDown-s.cumDown)
	v := DriftVerdict{Stat: stat}
	if s.hold > 0 {
		s.hold--
		v.Active = true
	}
	if s.n >= cfg.minPoints() && stat > cfg.lambda() {
		v.Alarm = true
		v.Active = true
		s.alarms++
		s.lastAlarmAt = at
		s.hold = cfg.holdTicks()
		s.reset()
	}
	s.lastStat = stat
	return v
}

// reset clears the accumulator (after an alarm or a refit) while
// keeping the alarm history and the active hold.
func (s *phState) reset() {
	s.n, s.mean = 0, 0
	s.cumUp, s.minUp = 0, 0
	s.cumDown, s.maxDown = 0, 0
}

// DriftVerdict is what one detector observation decided.
type DriftVerdict struct {
	// Alarm is true exactly once per detected shift: the observation
	// that pushed the statistic past Lambda.
	Alarm bool
	// Active is true while the drift condition should be reported
	// breaching to the alerter (the alarm observation plus HoldTicks).
	Active bool
	// Stat is the two-sided Page–Hinkley statistic after the update.
	Stat float64
}

// DriftStatus is the per-key drift snapshot exposed on
// /api/v1/calibration and merged into /api/v1/targets.
type DriftStatus struct {
	Key string `json:"key"`
	// State is "watching" (quiet) or "drifting" (alarmed within the
	// hold window).
	State string `json:"state"`
	// Stat is the current Page–Hinkley statistic; Lambda the threshold.
	Stat   float64 `json:"stat"`
	Lambda float64 `json:"lambda"`
	// Points counts residuals scored since the last reset.
	Points      int       `json:"points"`
	Alarms      int64     `json:"alarms"`
	LastAlarmAt time.Time `json:"last_alarm_at"`
}

// publishDrift exports one observation's drift gauges and, on an
// alarm, counts and logs it.
func publishDrift(o *obs.Observer, key string, at time.Time, v DriftVerdict, cfg DriftConfig) {
	o.SetGauge("forecast_drift_stat", v.Stat, obs.L("key", key))
	active := 0.0
	if v.Active {
		active = 1
	}
	o.SetGauge("forecast_drift_active", active, obs.L("key", key))
	if v.Alarm {
		o.Count("monitor_drift_alarms_total", 1, obs.L("key", key))
		o.Warn("forecast drift detected", "key", key,
			"page_hinkley", v.Stat, "lambda", cfg.lambda(), "at", at.Format(time.RFC3339))
	}
}

// status is the state's snapshot for key.
func (s *phState) status(key string, cfg DriftConfig) DriftStatus {
	state := "watching"
	if s.hold > 0 {
		state = "drifting"
	}
	return DriftStatus{
		Key: key, State: state,
		Stat: s.lastStat, Lambda: cfg.lambda(),
		Points: s.n, Alarms: s.alarms, LastAlarmAt: s.lastAlarmAt,
	}
}
