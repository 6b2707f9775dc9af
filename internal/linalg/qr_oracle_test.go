package linalg

import (
	"math"
	"math/rand"
	"testing"
)

// rowMajorQR is the reference Householder factorisation: the compact
// factor lives in a row-major Matrix and every element goes through the
// bounds-checked accessors. NewQR must reproduce its factor, tau, solves
// and R inverse bit for bit, so it is kept here as the oracle.
type rowMajorQR struct {
	qr         *Matrix
	tau        []float64
	rows, cols int
}

func newRowMajorQR(a *Matrix) *rowMajorQR {
	m, n := a.Rows(), a.Cols()
	qr := a.Clone()
	tau := make([]float64, n)
	for k := 0; k < n; k++ {
		colNorm := 0.0
		for i := k; i < m; i++ {
			colNorm = math.Hypot(colNorm, qr.At(i, k))
		}
		if colNorm == 0 {
			tau[k] = 0
			continue
		}
		alpha := qr.At(k, k)
		if alpha > 0 {
			colNorm = -colNorm
		}
		v0 := alpha - colNorm
		qr.Set(k, k, colNorm)
		for i := k + 1; i < m; i++ {
			qr.Set(i, k, qr.At(i, k)/v0)
		}
		tau[k] = -v0 / colNorm
		for j := k + 1; j < n; j++ {
			s := qr.At(k, j)
			for i := k + 1; i < m; i++ {
				s += qr.At(i, k) * qr.At(i, j)
			}
			s *= tau[k]
			qr.Add(k, j, -s)
			for i := k + 1; i < m; i++ {
				qr.Add(i, j, -s*qr.At(i, k))
			}
		}
	}
	return &rowMajorQR{qr: qr, tau: tau, rows: m, cols: n}
}

func (f *rowMajorQR) solve(b []float64) ([]float64, error) {
	work := append([]float64(nil), b...)
	for k := 0; k < f.cols; k++ {
		if f.tau[k] == 0 {
			continue
		}
		s := work[k]
		for i := k + 1; i < f.rows; i++ {
			s += f.qr.At(i, k) * work[i]
		}
		s *= f.tau[k]
		work[k] -= s
		for i := k + 1; i < f.rows; i++ {
			work[i] -= s * f.qr.At(i, k)
		}
	}
	x := make([]float64, f.cols)
	maxDiag := 0.0
	for k := 0; k < f.cols; k++ {
		if d := math.Abs(f.qr.At(k, k)); d > maxDiag {
			maxDiag = d
		}
	}
	tol := 1e-12 * math.Max(1, maxDiag)
	for k := f.cols - 1; k >= 0; k-- {
		s := work[k]
		for j := k + 1; j < f.cols; j++ {
			s -= f.qr.At(k, j) * x[j]
		}
		d := f.qr.At(k, k)
		if math.Abs(d) <= tol {
			return nil, ErrSingular
		}
		x[k] = s / d
	}
	return x, nil
}

func (f *rowMajorQR) rInverse() (*Matrix, error) {
	n := f.cols
	inv := NewMatrix(n, n)
	for j := 0; j < n; j++ {
		for k := n - 1; k >= 0; k-- {
			var rhs float64
			if k == j {
				rhs = 1
			}
			s := rhs
			for i := k + 1; i < n; i++ {
				s -= f.qr.At(k, i) * inv.At(i, j)
			}
			d := f.qr.At(k, k)
			if math.Abs(d) <= 1e-12 {
				return nil, ErrSingular
			}
			inv.Set(k, j, s/d)
		}
	}
	return inv, nil
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// assertQRMatchesOracle compares every observable of NewQR(a) with the
// row-major oracle, bit for bit: the compact factor, tau, RDiag, Solve on
// a right-hand side, and RInverse (including which of them fail).
func assertQRMatchesOracle(t *testing.T, a *Matrix, b []float64) {
	t.Helper()
	want := newRowMajorQR(a)
	got := NewQR(a)
	m, n := a.Rows(), a.Cols()
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			if g, w := got.at(i, j), want.qr.At(i, j); !sameBits(g, w) {
				t.Fatalf("%dx%d: factor(%d,%d) = %v, oracle %v", m, n, i, j, g, w)
			}
		}
	}
	for k := range want.tau {
		if !sameBits(got.tau[k], want.tau[k]) {
			t.Fatalf("%dx%d: tau[%d] = %v, oracle %v", m, n, k, got.tau[k], want.tau[k])
		}
	}
	for k, d := range got.RDiag() {
		if !sameBits(d, want.qr.At(k, k)) {
			t.Fatalf("%dx%d: RDiag[%d] = %v, oracle %v", m, n, k, d, want.qr.At(k, k))
		}
	}
	gx, gerr := got.Solve(b)
	wx, werr := want.solve(b)
	if gerr != werr {
		t.Fatalf("%dx%d: Solve error %v, oracle %v", m, n, gerr, werr)
	}
	for i := range wx {
		if !sameBits(gx[i], wx[i]) {
			t.Fatalf("%dx%d: Solve x[%d] = %v, oracle %v", m, n, i, gx[i], wx[i])
		}
	}
	ginv, gerr := got.RInverse()
	winv, werr := want.rInverse()
	if gerr != werr {
		t.Fatalf("%dx%d: RInverse error %v, oracle %v", m, n, gerr, werr)
	}
	if winv != nil {
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if !sameBits(ginv.At(i, j), winv.At(i, j)) {
					t.Fatalf("%dx%d: RInverse(%d,%d) = %v, oracle %v", m, n, i, j, ginv.At(i, j), winv.At(i, j))
				}
			}
		}
	}
}

// TestQRMatchesRowMajorOracle pins NewQR and its solves to the row-major
// reference on random matrices, including square ones, ones with an
// all-zero column, rank-deficient ones and regression-shaped designs with
// an intercept column.
func TestQRMatchesRowMajorOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for rep := 0; rep < 2000; rep++ {
		n := 1 + rng.Intn(12)
		m := n + rng.Intn(60)
		if rep%5 == 0 {
			m = n // square
		}
		a := NewMatrix(m, n)
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				a.Set(i, j, rng.NormFloat64()*math.Pow(10, float64(rng.Intn(7)-3)))
			}
		}
		switch rep % 4 {
		case 1: // an all-zero column
			z := rng.Intn(n)
			for i := 0; i < m; i++ {
				a.Set(i, z, 0)
			}
		case 2: // rank deficient: one column a multiple of another
			if n >= 2 {
				src, dst := rng.Intn(n), rng.Intn(n)
				for i := 0; i < m; i++ {
					a.Set(i, dst, 2.5*a.At(i, src))
				}
			}
		case 3: // regression design: intercept column first
			for i := 0; i < m; i++ {
				a.Set(i, 0, 1)
			}
		}
		b := make([]float64, m)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		assertQRMatchesOracle(t, a, b)
	}
	// A matrix of zeros and a single-column matrix.
	assertQRMatchesOracle(t, NewMatrix(4, 3), []float64{1, 2, 3, 4})
	assertQRMatchesOracle(t, NewMatrixFrom(3, 1, []float64{-1, 2, 0.5}), []float64{1, 0, -1})
}
