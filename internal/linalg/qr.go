package linalg

import "math"

// QR holds a Householder QR factorisation of an m×n matrix with m >= n.
// The factorisation is stored compactly: R in the upper triangle and the
// Householder vectors below the diagonal, plus the tau slice. The factor
// is column-major, so the column walks of the factorisation and of Qᵀb
// read contiguous memory: column j is qr[j*rows : (j+1)*rows].
type QR struct {
	qr   []float64
	tau  []float64
	rows int
	cols int
}

// NewQR computes the Householder QR factorisation of a.
// It panics if a has fewer rows than columns.
func NewQR(a *Matrix) *QR {
	m, n := a.Rows(), a.Cols()
	if m < n {
		panic("linalg: QR requires rows >= cols")
	}
	qr := make([]float64, m*n)
	for i := 0; i < m; i++ {
		for j, v := range a.data[i*n : (i+1)*n] {
			qr[j*m+i] = v
		}
	}
	tau := make([]float64, n)
	for k := 0; k < n; k++ {
		colK := qr[k*m : (k+1)*m]
		// Compute the Householder reflection for column k. The norm is
		// accumulated with Hypot, element by element, to avoid overflow;
		// a scaled sum of squares would be faster but give other bits.
		colNorm := 0.0
		for _, v := range colK[k:] {
			colNorm = math.Hypot(colNorm, v)
		}
		if colNorm == 0 {
			continue // tau[k] stays 0: nothing to reflect
		}
		alpha := colK[k]
		if alpha > 0 {
			colNorm = -colNorm
		}
		// v = x - colNorm*e1, normalised so v[0] = 1.
		v0 := alpha - colNorm
		colK[k] = colNorm
		vk := colK[k+1:]
		for i := range vk {
			vk[i] /= v0
		}
		tk := -v0 / colNorm
		tau[k] = tk
		// Apply the reflection to the remaining columns.
		for j := k + 1; j < n; j++ {
			colJ := qr[j*m : (j+1)*m]
			below := colJ[k+1:]
			s := colJ[k]
			for i, v := range vk {
				s += v * below[i]
			}
			s *= tk
			colJ[k] += -s
			for i, v := range vk {
				below[i] += -s * v
			}
		}
	}
	return &QR{qr: qr, tau: tau, rows: m, cols: n}
}

// at returns element (i, j) of the compact factor.
func (f *QR) at(i, j int) float64 { return f.qr[j*f.rows+i] }

// applyQt applies Qᵀ to a vector b of length rows, in place.
func (f *QR) applyQt(b []float64) {
	m := f.rows
	for k, tk := range f.tau {
		if tk == 0 {
			continue
		}
		vk := f.qr[k*m+k+1 : (k+1)*m]
		below := b[k+1 : m]
		s := b[k]
		for i, v := range vk {
			s += v * below[i]
		}
		s *= tk
		b[k] -= s
		for i, v := range vk {
			below[i] -= s * v
		}
	}
}

// Solve returns x minimising ‖Ax − b‖₂ for the factorised A.
// It returns ErrSingular if R has a (numerically) zero diagonal element.
func (f *QR) Solve(b []float64) ([]float64, error) {
	if len(b) != f.rows {
		panic("linalg: QR.Solve length mismatch")
	}
	work := make([]float64, len(b))
	copy(work, b)
	f.applyQt(work)
	x := make([]float64, f.cols)
	const tiny = 1e-12
	// Scale tolerance by the largest diagonal magnitude for robustness.
	maxDiag := 0.0
	for k := 0; k < f.cols; k++ {
		if d := math.Abs(f.at(k, k)); d > maxDiag {
			maxDiag = d
		}
	}
	tol := tiny * math.Max(1, maxDiag)
	for k := f.cols - 1; k >= 0; k-- {
		s := work[k]
		for j := k + 1; j < f.cols; j++ {
			s -= f.at(k, j) * x[j]
		}
		d := f.at(k, k)
		if math.Abs(d) <= tol {
			return nil, ErrSingular
		}
		x[k] = s / d
	}
	return x, nil
}

// RDiag returns the diagonal of R, useful for rank/conditioning checks.
func (f *QR) RDiag() []float64 {
	d := make([]float64, f.cols)
	for k := range d {
		d[k] = f.at(k, k)
	}
	return d
}

// RInverse returns R⁻¹ for the n×n upper-triangular factor, which is needed
// to form (XᵀX)⁻¹ = R⁻¹R⁻ᵀ for regression standard errors.
// It returns ErrSingular if R is singular.
func (f *QR) RInverse() (*Matrix, error) {
	n := f.cols
	inv := NewMatrix(n, n)
	const tiny = 1e-12
	for j := 0; j < n; j++ {
		// Solve R x = e_j by back substitution.
		for k := n - 1; k >= 0; k-- {
			var rhs float64
			if k == j {
				rhs = 1
			}
			s := rhs
			for i := k + 1; i < n; i++ {
				s -= f.at(k, i) * inv.data[i*n+j]
			}
			d := f.at(k, k)
			if math.Abs(d) <= tiny {
				return nil, ErrSingular
			}
			inv.data[k*n+j] = s / d
		}
	}
	return inv, nil
}

// SolveLeastSquares solves min ‖Ax − b‖₂ in one call.
func SolveLeastSquares(a *Matrix, b []float64) ([]float64, error) {
	return NewQR(a).Solve(b)
}
