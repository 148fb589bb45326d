package stats

import (
	"errors"
	"fmt"
	"math"
)

// Fit is the result of an ordinary-least-squares regression: the fitted
// coefficients and goodness-of-fit diagnostics. It corresponds to the
// paper's Equation (1) fit (τ = β₀ + β₁ξ₁ + β₂ξ₂ ... with R² reported).
type Fit struct {
	// Coeffs holds the fitted coefficients, one per regressor column
	// (including the intercept column if the caller supplied one).
	Coeffs []float64
	// R2 is the coefficient of determination of the fit.
	R2 float64
	// Residuals holds y - ŷ for every observation.
	Residuals []float64
	// N is the number of observations.
	N int
}

// ErrSingular is returned when the normal equations are singular (e.g.
// collinear regressors or fewer observations than coefficients).
var ErrSingular = errors.New("stats: singular regression system")

// OLS fits y ≈ X·β by ordinary least squares, where X is an n×k design
// matrix given row-wise. The caller includes an explicit all-ones column if
// an intercept is wanted (the paper fits through the origin for Fig. 2, so
// its design matrix has a single iteration-count column).
func OLS(x [][]float64, y []float64) (*Fit, error) {
	n := len(x)
	if n == 0 || n != len(y) {
		return nil, fmt.Errorf("stats: OLS needs matching non-empty x (%d rows) and y (%d)", n, len(y))
	}
	k := len(x[0])
	if k == 0 {
		return nil, errors.New("stats: OLS needs at least one regressor")
	}
	for i, row := range x {
		if len(row) != k {
			return nil, fmt.Errorf("stats: ragged design matrix at row %d", i)
		}
	}
	// Normal equations: (XᵀX) β = Xᵀy, solved by Gaussian elimination with
	// partial pivoting. k is small (≤ a handful of basic blocks), so the
	// O(k³) solve is negligible.
	xtx := make([][]float64, k)
	xty := make([]float64, k)
	for i := range xtx {
		xtx[i] = make([]float64, k)
	}
	for r := 0; r < n; r++ {
		row := x[r]
		for i := 0; i < k; i++ {
			xty[i] += row[i] * y[r]
			for j := i; j < k; j++ {
				xtx[i][j] += row[i] * row[j]
			}
		}
	}
	for i := 0; i < k; i++ {
		for j := 0; j < i; j++ {
			xtx[i][j] = xtx[j][i]
		}
	}
	beta, err := solve(xtx, xty)
	if err != nil {
		return nil, err
	}

	fit := &Fit{Coeffs: beta, N: n, Residuals: make([]float64, n)}
	var meanY float64
	for _, v := range y {
		meanY += v
	}
	meanY /= float64(n)
	var ssRes, ssTot float64
	for r := 0; r < n; r++ {
		var pred float64
		for i := 0; i < k; i++ {
			pred += beta[i] * x[r][i]
		}
		res := y[r] - pred
		fit.Residuals[r] = res
		ssRes += res * res
		d := y[r] - meanY
		ssTot += d * d
	}
	if ssTot > 0 {
		fit.R2 = 1 - ssRes/ssTot
	} else if ssRes == 0 {
		fit.R2 = 1
	}
	return fit, nil
}

// OLS1 fits the single-coefficient through-origin model y ≈ β·x, which is
// exactly the paper's Equation (2) (τ = 61827·ξ₁). It returns the
// coefficient and the fit diagnostics.
func OLS1(x, y []float64) (*Fit, error) {
	rows := make([][]float64, len(x))
	for i, v := range x {
		rows[i] = []float64{v}
	}
	return OLS(rows, y)
}

// solve performs Gaussian elimination with partial pivoting on a copy of
// the inputs.
func solve(a [][]float64, b []float64) ([]float64, error) {
	k := len(a)
	m := make([][]float64, k)
	for i := range m {
		m[i] = make([]float64, k+1)
		copy(m[i], a[i])
		m[i][k] = b[i]
	}
	for col := 0; col < k; col++ {
		piv := col
		for r := col + 1; r < k; r++ {
			if math.Abs(m[r][col]) > math.Abs(m[piv][col]) {
				piv = r
			}
		}
		if math.Abs(m[piv][col]) < 1e-12 {
			return nil, ErrSingular
		}
		m[col], m[piv] = m[piv], m[col]
		for r := 0; r < k; r++ {
			if r == col {
				continue
			}
			f := m[r][col] / m[col][col]
			for c := col; c <= k; c++ {
				m[r][c] -= f * m[col][c]
			}
		}
	}
	out := make([]float64, k)
	for i := 0; i < k; i++ {
		out[i] = m[i][k] / m[i][i]
	}
	return out, nil
}
