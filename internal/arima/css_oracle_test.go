package arima

import (
	"math"
	"math/rand"
	"testing"
)

// denseConditionalSS is the reference CSS recursion: it walks every lag of
// the expanded polynomials and skips the zero coefficients inside the
// loop. The production kernel must reproduce its residuals and CSS bit for
// bit, so it is kept here, unoptimised, as the oracle.
func denseConditionalSS(w []float64, c float64, arFull, maFull []float64) (css float64, resid []float64) {
	n := len(w)
	resid = make([]float64, n)
	warm := len(arFull)
	if warm > n {
		return math.Inf(1), resid
	}
	for t := warm; t < n; t++ {
		v := w[t] - c
		for i, phi := range arFull {
			if phi != 0 {
				v -= phi * w[t-1-i]
			}
		}
		for j, th := range maFull {
			if th == 0 {
				continue
			}
			if t-1-j >= 0 {
				v += th * resid[t-1-j]
			}
		}
		resid[t] = v
		css += v * v
	}
	return css, resid
}

// sameBits reports whether a and b are the same float64, bit for bit.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// assertCSSMatchesOracle checks the allocating and workspace CSS paths
// against the dense oracle, bit for bit, on one input.
func assertCSSMatchesOracle(t *testing.T, ws *Workspace, w []float64, c float64, arFull, maFull []float64) {
	t.Helper()
	wantCSS, wantResid := denseConditionalSS(w, c, arFull, maFull)
	gotCSS, gotResid := conditionalSS(w, c, arFull, maFull)
	wsCSS, wsResid := ws.conditionalSSInto(w, c, arFull, maFull)
	for _, got := range []struct {
		path  string
		css   float64
		resid []float64
	}{{"conditionalSS", gotCSS, gotResid}, {"workspace", wsCSS, wsResid}} {
		if !sameBits(got.css, wantCSS) {
			t.Fatalf("%s: css %v (%#x), oracle %v (%#x); len(ar)=%d len(ma)=%d",
				got.path, got.css, math.Float64bits(got.css), wantCSS, math.Float64bits(wantCSS), len(arFull), len(maFull))
		}
		if len(got.resid) != len(wantResid) {
			t.Fatalf("%s: %d residuals, oracle %d", got.path, len(got.resid), len(wantResid))
		}
		for i := range wantResid {
			if !sameBits(got.resid[i], wantResid[i]) {
				t.Fatalf("%s: resid[%d] = %v, oracle %v", got.path, i, got.resid[i], wantResid[i])
			}
		}
	}
}

// randomSparsePoly returns a polynomial of length n whose entries are zero
// with probability zeroFrac and otherwise small random coefficients.
func randomSparsePoly(rng *rand.Rand, n int, zeroFrac float64) []float64 {
	p := make([]float64, n)
	for i := range p {
		if rng.Float64() >= zeroFrac {
			p[i] = (rng.Float64()*2 - 1) * 0.9 / float64(n)
		}
	}
	return p
}

// randomCoeffs returns n coefficients in (−0.45, 0.45).
func randomCoeffs(rng *rand.Rand, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = (rng.Float64()*2 - 1) * 0.45
	}
	return out
}

func randomSeries(rng *rand.Rand, n int) []float64 {
	w := make([]float64, n)
	for i := range w {
		w[i] = 10*math.Sin(2*math.Pi*float64(i)/24) + rng.NormFloat64()
	}
	return w
}

// TestConditionalSSMatchesDenseOracle pins the CSS kernel to the dense
// recursion on random inputs: seasonal expansions (interior zeros),
// arbitrary sparsity patterns, all-zero polynomials, MA polynomials longer
// than the AR one, and expanded lengths above 64.
func TestConditionalSSMatchesDenseOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	ws := NewWorkspace() // reused on purpose: stale buffers must not leak
	type shape struct{ p, q, sp, sq, s int }
	shapes := []shape{
		{1, 1, 1, 1, 24},
		{2, 0, 1, 0, 24},
		{0, 2, 0, 2, 24},  // pure MA, seasonal
		{0, 1, 0, 1, 24},  // maFull longer than an empty arFull
		{1, 3, 0, 2, 24},  // maFull (51) longer than arFull (1)
		{22, 1, 2, 1, 24}, // arFull length 70 > 64
		{3, 2, 2, 2, 24},  // both expanded lengths above 48
		{13, 2, 1, 1, 24},
		{2, 1, 1, 1, 7},
		{0, 0, 0, 0, 0}, // no lags at all
	}
	for _, sh := range shapes {
		for rep := 0; rep < 8; rep++ {
			arFull := expandSeasonal(randomCoeffs(rng, sh.p), randomCoeffs(rng, sh.sp), sh.s)
			maFull := expandSeasonal(randomCoeffs(rng, sh.q), randomCoeffs(rng, sh.sq), sh.s)
			w := randomSeries(rng, 150+rng.Intn(200))
			assertCSSMatchesOracle(t, ws, w, rng.NormFloat64(), arFull, maFull)
		}
	}
	for rep := 0; rep < 300; rep++ {
		arFull := randomSparsePoly(rng, rng.Intn(90), rng.Float64())
		maFull := randomSparsePoly(rng, rng.Intn(90), rng.Float64())
		w := randomSeries(rng, 1+rng.Intn(250))
		assertCSSMatchesOracle(t, ws, w, rng.NormFloat64(), arFull, maFull)
	}
	// All-zero polynomials of several lengths, including zero entries
	// that are negative zero.
	for _, n := range []int{0, 1, 25, 70} {
		ar := make([]float64, n)
		ma := make([]float64, n+3)
		if n > 0 {
			ar[n-1] = math.Copysign(0, -1)
		}
		assertCSSMatchesOracle(t, ws, randomSeries(rng, 120), 0.5, ar, ma)
	}
	// Unstable coefficients let the recursion overflow: Inf and NaN
	// must propagate the same way.
	big := []float64{3, 0, 0, 2.5}
	assertCSSMatchesOracle(t, ws, randomSeries(rng, 2000), 0, big, []float64{0, -4})
}

// TestAdvanceMatchesDenseOracle pins Advance's continuation of the
// recursion: after folding new points in, the residuals and the running
// CSS equal the dense recursion over the whole extended series.
func TestAdvanceMatchesDenseOracle(t *testing.T) {
	specs := []Spec{
		{P: 1, D: 1, Q: 1, SP: 1, SD: 1, SQ: 1, S: 24},
		{P: 2, D: 0, Q: 2, SQ: 1, S: 24},
		{P: 3, D: 1, Q: 0},
	}
	y := genSeries(24 * 16)
	for _, spec := range specs {
		m, err := Fit(spec, y[:24*12], nil, FitOptions{})
		if err != nil {
			t.Fatalf("%v: %v", spec, err)
		}
		for _, chunk := range [][2]int{{24 * 12, 24*12 + 1}, {24*12 + 1, 24 * 14}, {24 * 14, 24 * 16}} {
			if err := m.Advance(y[chunk[0]:chunk[1]], nil); err != nil {
				t.Fatalf("%v: Advance: %v", spec, err)
			}
			arFull := expandSeasonal(m.AR, m.SAR, spec.S)
			maFull := expandSeasonal(m.MA, m.SMA, spec.S)
			wantCSS, wantResid := denseConditionalSS(m.w, m.Intercept, arFull, maFull)
			if !sameBits(m.css, wantCSS) {
				t.Fatalf("%v: advanced css %v, oracle %v", spec, m.css, wantCSS)
			}
			if len(m.Residuals) != len(wantResid) {
				t.Fatalf("%v: %d residuals, oracle %d", spec, len(m.Residuals), len(wantResid))
			}
			for i := range wantResid {
				if !sameBits(m.Residuals[i], wantResid[i]) {
					t.Fatalf("%v: resid[%d] = %v, oracle %v", spec, i, m.Residuals[i], wantResid[i])
				}
			}
		}
	}
}

// FuzzConditionalSS compares the CSS kernel with the dense oracle, bit for
// bit, on polynomials and series derived from the fuzzed seed and shape.
func FuzzConditionalSS(f *testing.F) {
	f.Add(int64(1), uint8(25), uint8(25), uint8(128), uint16(300), 0.5)
	f.Add(int64(2), uint8(70), uint8(3), uint8(250), uint16(200), 0.0)
	f.Add(int64(3), uint8(1), uint8(51), uint8(200), uint16(120), -2.0)
	f.Add(int64(4), uint8(0), uint8(0), uint8(0), uint16(10), 1.0)
	f.Add(int64(5), uint8(90), uint8(90), uint8(0), uint16(60), 3.0)
	f.Fuzz(func(t *testing.T, seed int64, arLen, maLen, zeroFrac uint8, n uint16, c float64) {
		rng := rand.New(rand.NewSource(seed))
		arFull := randomSparsePoly(rng, int(arLen), float64(zeroFrac)/255)
		maFull := randomSparsePoly(rng, int(maLen), float64(zeroFrac)/255)
		w := randomSeries(rng, int(n%1024))
		assertCSSMatchesOracle(t, NewWorkspace(), w, c, arFull, maFull)
	})
}
