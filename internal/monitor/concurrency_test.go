package monitor

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// TestMonitorLockDiscipline runs eight observers over shared and
// distinct keys while pollers read every payload. The refit hook itself
// reads the monitor's targets and calibration for its key, so a refit
// started while the monitor held its own lock would deadlock here.
// Run it under -race.
func TestMonitorLockDiscipline(t *testing.T) {
	t0 := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	o := obs.New(obs.Config{Metrics: true})
	store := core.NewModelStore(core.StalePolicy{MaxAge: 365 * 24 * time.Hour, DegradeFactor: 2})
	store.SetObserver(o)
	store.SetClock(func() time.Time { return t0 })

	keys := []string{"shared/cpu", "shared/io"}
	for g := 0; g < 8; g++ {
		keys = append(keys, fmt.Sprintf("db%d/cpu", g))
	}
	for _, k := range keys {
		store.Put(k, storedResultWithBand(t0, 100, 5, 5, 24))
	}

	var mon *Monitor
	var refits atomic.Int64
	mon, err := New(Config{
		Store: store, Window: 6, MinPoints: 3,
		Rules: []Rule{{Metric: "cpu", Threshold: 130}},
		Refit: func(_ context.Context, key string, warm bool) (*core.Result, error) {
			refits.Add(1)
			mon.TargetsFor(key)
			mon.Calibration(key)
			res := storedResultWithBand(t0, 100, 5, 5, 24)
			res.WarmStarted = warm
			return res, nil
		},
		Advance: func(_ context.Context, key string, at time.Time) (*core.Result, error) {
			mon.TargetsFor(key)
			return nil, fmt.Errorf("no live model for %s", key)
		},
		Obs: o,
	})
	if err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		var observers, pollers sync.WaitGroup
		stop := make(chan struct{})
		for g := 0; g < 8; g++ {
			observers.Add(1)
			go func(g int) {
				defer observers.Done()
				own := fmt.Sprintf("db%d/cpu", g)
				for i := 0; i < 120; i++ {
					// Every 7th actual lands far off the forecast, and a
					// few fall past its 24-step horizon, so refits of
					// every reason run concurrently with the pollers.
					at := t0.Add(time.Duration(i%30) * time.Hour)
					v := 100 + noise(i+g)
					if i%7 == 0 {
						v = 400
					}
					mon.ObserveActual(context.Background(), keys[i%2], at, v)
					mon.ObserveActual(context.Background(), own, at, v)
					mon.ObserveCondition(own, "plan_grow", at, i%3 == 0, v, at)
				}
			}(g)
		}
		for p := 0; p < 3; p++ {
			pollers.Add(1)
			go func() {
				defer pollers.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					mon.TargetsFor("")
					mon.Calibration("")
					mon.Accuracy()
					mon.Alerts()
					mon.EvaluateAlerts(t0)
				}
			}()
		}
		observers.Wait()
		close(stop)
		pollers.Wait()
	}()

	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("observers and pollers did not finish: a hook ran under a monitor lock")
	}
	if refits.Load() == 0 {
		t.Fatal("no refit ran, so the hooks were never exercised")
	}
	if got := len(mon.TargetsFor("")); got != len(keys) {
		t.Fatalf("targets = %d, want %d", got, len(keys))
	}
}
