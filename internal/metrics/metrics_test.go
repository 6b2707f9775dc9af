package metrics

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRMSEKnown(t *testing.T) {
	a := []float64{1, 2, 3}
	f := []float64{1, 2, 3}
	if RMSE(a, f) != 0 {
		t.Fatal("perfect forecast should be 0")
	}
	f = []float64{2, 3, 4}
	if got := RMSE(a, f); got != 1 {
		t.Fatalf("RMSE = %v, want 1", got)
	}
	f = []float64{4, 2, 3}
	if got := RMSE(a, f); math.Abs(got-math.Sqrt(3)) > 1e-12 {
		t.Fatalf("RMSE = %v, want sqrt(3)", got)
	}
}

func TestMAEAndME(t *testing.T) {
	a := []float64{10, 20}
	f := []float64{12, 16}
	if got := MAE(a, f); got != 3 {
		t.Fatalf("MAE = %v, want 3", got)
	}
	if got := ME(a, f); got != -1 {
		t.Fatalf("ME = %v, want -1 (under-forecast)", got)
	}
}

func TestMAPE(t *testing.T) {
	a := []float64{100, 200}
	f := []float64{110, 180}
	// |10/100| + |20/200| = 0.1 + 0.1 → 10%.
	if got := MAPE(a, f); math.Abs(got-10) > 1e-12 {
		t.Fatalf("MAPE = %v, want 10", got)
	}
}

func TestMAPESkipsZeros(t *testing.T) {
	a := []float64{0, 100}
	f := []float64{5, 110}
	if got := MAPE(a, f); math.Abs(got-10) > 1e-12 {
		t.Fatalf("MAPE = %v, want 10 (zero actual skipped)", got)
	}
	if !math.IsNaN(MAPE([]float64{0, 0}, []float64{1, 1})) {
		t.Fatal("all-zero actuals should be NaN")
	}
}

func TestMAPESkipsOverflowingTerms(t *testing.T) {
	// |(5e-324 − 1) / 5e-324| overflows to +Inf: the term is dropped,
	// leaving the finite one.
	a := []float64{5e-324, 10}
	f := []float64{1, 11}
	if got := MAPE(a, f); math.Abs(got-10) > 1e-12 {
		t.Fatalf("MAPE = %v, want 10 (overflowing term skipped)", got)
	}
	if got := MAPA(a, f); math.Abs(got-90) > 1e-12 {
		t.Fatalf("MAPA = %v, want 90", got)
	}
	if !math.IsNaN(MAPE([]float64{5e-324}, []float64{1})) {
		t.Fatal("MAPE with only an overflowing term should be NaN")
	}
	// A NaN forecast is not an overflow: it still poisons the mean.
	if !math.IsNaN(MAPE([]float64{10, 10}, []float64{math.NaN(), 10})) {
		t.Fatal("MAPE with a NaN forecast should be NaN")
	}
}

func TestMAPA(t *testing.T) {
	a := []float64{100, 200}
	f := []float64{110, 180}
	if got := MAPA(a, f); math.Abs(got-90) > 1e-12 {
		t.Fatalf("MAPA = %v, want 90", got)
	}
	// Catastrophic forecast: MAPA floors at 0.
	f = []float64{1000, 2000}
	if got := MAPA(a, f); got != 0 {
		t.Fatalf("MAPA = %v, want 0", got)
	}
}

func TestSMAPEBounds(t *testing.T) {
	a := []float64{1, 1}
	f := []float64{-1, -1}
	if got := SMAPE(a, f); math.Abs(got-200) > 1e-9 {
		t.Fatalf("SMAPE = %v, want 200 (max)", got)
	}
	if got := SMAPE(a, a); got != 0 {
		t.Fatalf("SMAPE = %v, want 0", got)
	}
}

func TestMASE(t *testing.T) {
	// Train where the naive period-1 error is exactly 1 on average.
	train := []float64{0, 1, 2, 3, 4, 5}
	actual := []float64{6, 7}
	forecast := []float64{6.5, 7.5}
	got := MASE(actual, forecast, train, 1)
	if math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("MASE = %v, want 0.5", got)
	}
	if !math.IsNaN(MASE(actual, forecast, []float64{1}, 5)) {
		t.Fatal("short train should give NaN")
	}
	if !math.IsNaN(MASE(actual, forecast, []float64{2, 2, 2}, 1)) {
		t.Fatal("constant train (zero naive error) should give NaN")
	}
}

func TestEvaluateAndBetter(t *testing.T) {
	a := []float64{10, 20, 30}
	good := Evaluate(a, []float64{11, 19, 30})
	bad := Evaluate(a, []float64{20, 5, 50})
	if !good.Better(bad) {
		t.Fatal("good forecast should score better")
	}
	if bad.Better(good) {
		t.Fatal("Better not antisymmetric")
	}
	nan := Score{RMSE: math.NaN()}
	if nan.Better(good) {
		t.Fatal("NaN must lose")
	}
	if !good.Better(nan) {
		t.Fatal("real score must beat NaN")
	}
}

func TestPanicsOnBadInput(t *testing.T) {
	for i, f := range []func(){
		func() { RMSE([]float64{1}, []float64{1, 2}) },
		func() { MAE(nil, nil) },
		func() { MAPE([]float64{1, 2}, []float64{1}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			f()
		}()
	}
}

// Property: RMSE >= MAE >= |ME| for any inputs.
func TestErrorInequalityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(50)
		a := make([]float64, n)
		fc := make([]float64, n)
		for i := range a {
			a[i] = rng.NormFloat64() * 10
			fc[i] = rng.NormFloat64() * 10
		}
		rmse, mae, me := RMSE(a, fc), MAE(a, fc), ME(a, fc)
		return rmse >= mae-1e-12 && mae >= math.Abs(me)-1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: RMSE is invariant under common translation of both series.
func TestRMSETranslationInvarianceProperty(t *testing.T) {
	f := func(seed int64, shiftRaw float64) bool {
		if math.IsNaN(shiftRaw) || math.IsInf(shiftRaw, 0) {
			return true
		}
		shift := math.Mod(shiftRaw, 1e6)
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(30)
		a := make([]float64, n)
		fc := make([]float64, n)
		a2 := make([]float64, n)
		fc2 := make([]float64, n)
		for i := range a {
			a[i] = rng.NormFloat64() * 10
			fc[i] = rng.NormFloat64() * 10
			a2[i] = a[i] + shift
			fc2[i] = fc[i] + shift
		}
		return math.Abs(RMSE(a, fc)-RMSE(a2, fc2)) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
