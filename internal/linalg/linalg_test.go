package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*(1+math.Abs(a)+math.Abs(b))
}

func TestMatrixBasics(t *testing.T) {
	m := NewMatrixFrom(2, 3, []float64{1, 2, 3, 4, 5, 6})
	if m.Rows() != 2 || m.Cols() != 3 {
		t.Fatalf("dims = %dx%d, want 2x3", m.Rows(), m.Cols())
	}
	if m.At(1, 2) != 6 {
		t.Fatalf("At(1,2) = %v, want 6", m.At(1, 2))
	}
	m.Set(0, 0, 9)
	if m.At(0, 0) != 9 {
		t.Fatalf("Set failed")
	}
	m.Add(0, 0, 1)
	if m.At(0, 0) != 10 {
		t.Fatalf("Add failed")
	}
	r := m.Row(1)
	if r[0] != 4 || r[1] != 5 || r[2] != 6 {
		t.Fatalf("Row(1) = %v", r)
	}
	c := m.Col(1)
	if c[0] != 2 || c[1] != 5 {
		t.Fatalf("Col(1) = %v", c)
	}
}

func TestMatrixPanics(t *testing.T) {
	cases := []func(){
		func() { NewMatrix(0, 3) },
		func() { NewMatrixFrom(2, 2, []float64{1}) },
		func() { NewMatrix(2, 2).At(2, 0) },
		func() { NewMatrix(2, 2).MulVec([]float64{1}) },
		func() { NewMatrix(2, 2).Mul(NewMatrix(3, 3)) },
		func() { Dot([]float64{1}, []float64{1, 2}) },
	}
	for i, f := range cases {
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

func TestTranspose(t *testing.T) {
	m := NewMatrixFrom(2, 3, []float64{1, 2, 3, 4, 5, 6})
	tr := m.Transpose()
	if tr.Rows() != 3 || tr.Cols() != 2 {
		t.Fatalf("transpose dims wrong")
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			if m.At(i, j) != tr.At(j, i) {
				t.Fatalf("transpose mismatch at (%d,%d)", i, j)
			}
		}
	}
}

func TestMulAgainstHand(t *testing.T) {
	a := NewMatrixFrom(2, 2, []float64{1, 2, 3, 4})
	b := NewMatrixFrom(2, 2, []float64{5, 6, 7, 8})
	c := a.Mul(b)
	want := []float64{19, 22, 43, 50}
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if c.At(i, j) != want[i*2+j] {
				t.Fatalf("Mul: got %v at (%d,%d), want %v", c.At(i, j), i, j, want[i*2+j])
			}
		}
	}
}

func TestMulVec(t *testing.T) {
	a := NewMatrixFrom(2, 3, []float64{1, 0, 2, -1, 3, 1})
	v := []float64{3, 2, 1}
	got := a.MulVec(v)
	want := []float64{5, 4}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("MulVec = %v, want %v", got, want)
		}
	}
}

func TestIdentityMul(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := NewMatrix(4, 4)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			a.Set(i, j, rng.NormFloat64())
		}
	}
	p := a.Mul(Identity(4))
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			if p.At(i, j) != a.At(i, j) {
				t.Fatalf("A*I != A")
			}
		}
	}
}

func TestQRSolveExact(t *testing.T) {
	// 3x3 well-conditioned system with a known solution.
	a := NewMatrixFrom(3, 3, []float64{
		4, 1, 0,
		1, 3, 1,
		0, 1, 2,
	})
	want := []float64{1, -2, 3}
	b := a.MulVec(want)
	x, err := NewQR(a).Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if !almostEq(x[i], want[i], 1e-10) {
			t.Fatalf("x = %v, want %v", x, want)
		}
	}
}

func TestQRLeastSquares(t *testing.T) {
	// Overdetermined: fit y = 2 + 3x exactly on noiseless data.
	n := 20
	a := NewMatrix(n, 2)
	b := make([]float64, n)
	for i := 0; i < n; i++ {
		x := float64(i)
		a.Set(i, 0, 1)
		a.Set(i, 1, x)
		b[i] = 2 + 3*x
	}
	beta, err := SolveLeastSquares(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(beta[0], 2, 1e-9) || !almostEq(beta[1], 3, 1e-9) {
		t.Fatalf("beta = %v, want [2 3]", beta)
	}
}

func TestQRSingular(t *testing.T) {
	// Two identical columns — rank deficient.
	n := 10
	a := NewMatrix(n, 2)
	b := make([]float64, n)
	for i := 0; i < n; i++ {
		a.Set(i, 0, float64(i))
		a.Set(i, 1, float64(i))
		b[i] = float64(i)
	}
	if _, err := SolveLeastSquares(a, b); err == nil {
		t.Fatal("expected ErrSingular for rank-deficient system")
	}
}

func TestQRRandomResidualOrthogonality(t *testing.T) {
	// Least-squares residuals must be orthogonal to the column space.
	rng := rand.New(rand.NewSource(7))
	m, n := 30, 4
	a := NewMatrix(m, n)
	b := make([]float64, m)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			a.Set(i, j, rng.NormFloat64())
		}
		b[i] = rng.NormFloat64()
	}
	x, err := SolveLeastSquares(a, b)
	if err != nil {
		t.Fatal(err)
	}
	res := make([]float64, m)
	fit := a.MulVec(x)
	for i := range res {
		res[i] = b[i] - fit[i]
	}
	for j := 0; j < n; j++ {
		if d := Dot(a.Col(j), res); math.Abs(d) > 1e-8 {
			t.Fatalf("residual not orthogonal to column %d: %v", j, d)
		}
	}
}

func TestQRRInverse(t *testing.T) {
	a := NewMatrixFrom(3, 3, []float64{
		2, 1, 0,
		0, 3, 1,
		0, 0, 4,
	})
	// Use the QR of an upper-triangular (already R-like) full-rank matrix.
	qr := NewQR(a)
	inv, err := qr.RInverse()
	if err != nil {
		t.Fatal(err)
	}
	// Verify R * R^{-1} = I using the R stored in the factorisation.
	r := NewMatrix(3, 3)
	for i := 0; i < 3; i++ {
		for j := i; j < 3; j++ {
			r.Set(i, j, qr.at(i, j))
		}
	}
	p := r.Mul(inv)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if !almostEq(p.At(i, j), want, 1e-9) {
				t.Fatalf("R*Rinv != I at (%d,%d): %v", i, j, p.At(i, j))
			}
		}
	}
}

func TestCholeskySolve(t *testing.T) {
	a := NewMatrixFrom(3, 3, []float64{
		4, 1, 0,
		1, 3, 1,
		0, 1, 2,
	})
	want := []float64{1, 2, -1}
	b := a.MulVec(want)
	ch, err := NewCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	x := ch.Solve(b)
	for i := range want {
		if !almostEq(x[i], want[i], 1e-10) {
			t.Fatalf("x = %v, want %v", x, want)
		}
	}
}

func TestCholeskyNotPD(t *testing.T) {
	a := NewMatrixFrom(2, 2, []float64{1, 2, 2, 1}) // indefinite
	if _, err := NewCholesky(a); err == nil {
		t.Fatal("expected failure for indefinite matrix")
	}
}

func TestCholeskyLogDet(t *testing.T) {
	a := NewMatrixFrom(2, 2, []float64{4, 0, 0, 9})
	ch, err := NewCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(ch.LogDet(), math.Log(36), 1e-12) {
		t.Fatalf("LogDet = %v, want %v", ch.LogDet(), math.Log(36))
	}
}

func TestNorm2(t *testing.T) {
	if got := Norm2([]float64{3, 4}); !almostEq(got, 5, 1e-12) {
		t.Fatalf("Norm2 = %v, want 5", got)
	}
	if got := Norm2(nil); got != 0 {
		t.Fatalf("Norm2(nil) = %v, want 0", got)
	}
	// Overflow guard: huge components must not overflow.
	big := 1e300
	if got := Norm2([]float64{big, big}); math.IsInf(got, 1) {
		t.Fatal("Norm2 overflowed")
	}
}

// Property: (A·B)ᵀ = Bᵀ·Aᵀ for random small matrices.
func TestTransposeProductProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, k, n := 2+rng.Intn(4), 2+rng.Intn(4), 2+rng.Intn(4)
		a, b := NewMatrix(m, k), NewMatrix(k, n)
		for i := 0; i < m; i++ {
			for j := 0; j < k; j++ {
				a.Set(i, j, rng.NormFloat64())
			}
		}
		for i := 0; i < k; i++ {
			for j := 0; j < n; j++ {
				b.Set(i, j, rng.NormFloat64())
			}
		}
		lhs := a.Mul(b).Transpose()
		rhs := b.Transpose().Mul(a.Transpose())
		for i := 0; i < n; i++ {
			for j := 0; j < m; j++ {
				if !almostEq(lhs.At(i, j), rhs.At(i, j), 1e-10) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: QR solve of A·x for random SPD-ish systems recovers x.
func TestQRSolveRecoversProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(5)
		a := NewMatrix(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				a.Set(i, j, rng.NormFloat64())
			}
			a.Add(i, i, float64(n)) // diagonal dominance for conditioning
		}
		want := make([]float64, n)
		for i := range want {
			want[i] = rng.NormFloat64()
		}
		b := a.MulVec(want)
		x, err := NewQR(a).Solve(b)
		if err != nil {
			return false
		}
		for i := range want {
			if !almostEq(x[i], want[i], 1e-7) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: Cholesky solve matches QR solve on random SPD matrices.
func TestCholeskyMatchesQRProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(4)
		g := NewMatrix(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				g.Set(i, j, rng.NormFloat64())
			}
		}
		a := g.Transpose().Mul(g)
		for i := 0; i < n; i++ {
			a.Add(i, i, 1) // ensure PD
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		ch, err := NewCholesky(a)
		if err != nil {
			return false
		}
		x1 := ch.Solve(b)
		x2, err := NewQR(a).Solve(b)
		if err != nil {
			return false
		}
		for i := range x1 {
			if !almostEq(x1[i], x2[i], 1e-6) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkQRSolve50x5(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	a := NewMatrix(50, 5)
	for i := 0; i < 50; i++ {
		for j := 0; j < 5; j++ {
			a.Set(i, j, rng.NormFloat64())
		}
	}
	y := make([]float64, 50)
	for i := range y {
		y[i] = rng.NormFloat64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SolveLeastSquares(a, y); err != nil {
			b.Fatal(err)
		}
	}
}
