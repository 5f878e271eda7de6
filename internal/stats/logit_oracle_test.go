package stats

import (
	"math"
	"math/rand"
	"testing"
)

// logitOracle is the Newton-Raphson fit with the plain dense Hessian
// kernel: every feature, zero or not, accumulates w*va*row[b] into its
// gradient entry and Hessian row. Logit skips zero features and hoists
// w*va; the oracle tests below pin that those are bit-identical on finite
// designs. Input validation is Logit's and is left out here.
func logitOracle(x *Matrix, y []float64, opt LogitOptions) *LogitResult {
	n, p := x.Rows, x.Cols+1
	var ones, zeros int
	for _, v := range y {
		if v == 1 {
			ones++
		} else {
			zeros++
		}
	}
	if opt.MaxIter == 0 {
		opt.MaxIter = 50
	}
	if opt.Tol == 0 {
		opt.Tol = 1e-8
	}
	beta := make([]float64, p)
	beta[0] = math.Log(float64(ones) / float64(zeros))
	grad := make([]float64, p)
	hess := NewMatrix(p, p)
	res := &LogitResult{N: n}
	for iter := 1; iter <= opt.MaxIter; iter++ {
		res.Iterations = iter
		for j := range grad {
			grad[j] = 0
		}
		for i := range hess.Data {
			hess.Data[i] = 0
		}
		for i := 0; i < n; i++ {
			row := x.Row(i)
			z := beta[0]
			for j, v := range row {
				z += beta[j+1] * v
			}
			m := Sigmoid(z)
			w := m * (1 - m)
			if w < 1e-10 {
				w = 1e-10
			}
			r := y[i] - m
			grad[0] += r
			hr0 := hess.Row(0)
			hr0[0] += w
			for a, va := range row {
				grad[a+1] += r * va
				hr0[a+1] += w * va
				ha := hess.Row(a + 1)
				for b := a; b < len(row); b++ {
					ha[b+1] += w * va * row[b]
				}
			}
		}
		for a := 0; a < p; a++ {
			for b := a + 1; b < p; b++ {
				hess.Set(b, a, hess.At(a, b))
			}
		}
		if opt.Ridge > 0 {
			for j := 1; j < p; j++ {
				grad[j] -= opt.Ridge * beta[j]
				hess.Set(j, j, hess.At(j, j)+opt.Ridge)
			}
		}
		step, err := hess.SymSolve(grad)
		if err != nil {
			panic(err)
		}
		var maxStep float64
		for j := range beta {
			if step[j] > 10 {
				step[j] = 10
			} else if step[j] < -10 {
				step[j] = -10
			}
			beta[j] += step[j]
			if a := math.Abs(step[j]); a > maxStep {
				maxStep = a
			}
		}
		if maxStep < opt.Tol {
			res.Converged = true
			break
		}
	}
	res.Coef = beta
	var ll float64
	for i := 0; i < n; i++ {
		row := x.Row(i)
		z := beta[0]
		for j, v := range row {
			z += beta[j+1] * v
		}
		m := Sigmoid(z)
		if m < 1e-12 {
			m = 1e-12
		} else if m > 1-1e-12 {
			m = 1 - 1e-12
		}
		if y[i] == 1 {
			ll += math.Log(m)
		} else {
			ll += math.Log(1 - m)
		}
	}
	res.LogLik = ll
	return res
}

// earDesignWidth is the platform eAR model's design width: 5 user, 6 image
// and 5×6 interaction features, age gap, has-person, and 11 jobs × 3.
const earDesignWidth = 5 + 6 + 5*6 + 1 + 1 + 11*3

// earLikeDesign draws an engagement-log-shaped design of earDesignWidth
// columns: a dense user block, an image block that is all zero for
// no-person creatives, their products, and a one-hot job block. Like the
// real log it is mostly zeros. Every negZeroEvery-th zero is written as -0
// (0 disables), so the kernel sees both signed zeros.
func earLikeDesign(rng *rand.Rand, n, negZeroEvery int) (*Matrix, []float64) {
	const user, img, cross, gap, person, jobs = 0, 5, 11, 41, 42, 43
	x := NewMatrix(n, earDesignWidth)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		row := x.Row(i)
		a := 0.2 + 0.8*rng.Float64()
		row[user] = a
		row[user+1] = a * a
		female, black := float64(rng.Intn(2)), float64(rng.Intn(2))
		row[user+2], row[user+3] = female, black
		if female == 0 && a > 0.7 {
			row[user+4] = (a - 0.7) * 3
		}
		if rng.Float64() < 0.9 {
			ia := 0.2 + 0.6*rng.Float64()
			row[img] = rng.Float64()
			row[img+1] = rng.Float64()
			row[img+2] = ia
			row[img+3] = ia * ia
			if ia < 0.25 {
				row[img+4] = 1
			}
			if row[img] > 0.5 && ia < 0.4 {
				row[img+5] = 1
			}
			for u := 0; u < 5; u++ {
				for v := 0; v < 6; v++ {
					row[cross+6*u+v] = row[user+u] * row[img+v]
				}
			}
			row[gap] = math.Abs(a - ia)
			row[person] = 1
		}
		if rng.Float64() < 0.3 {
			j := jobs + 3*rng.Intn(11)
			row[j], row[j+1], row[j+2] = 1, female, black
		}
		z := -1.5 + 0.8*row[user+2]*row[img] + 0.9*row[user+3]*row[img+1] - 1.2*row[gap]
		if rng.Float64() < Sigmoid(z) {
			y[i] = 1
		}
	}
	if negZeroEvery > 0 {
		k := 0
		for i, v := range x.Data {
			if v == 0 {
				if k%negZeroEvery == 0 {
					x.Data[i] = math.Copysign(0, -1)
				}
				k++
			}
		}
	}
	return x, y
}

// assertLogitBitIdentical fits x,y with Logit and the oracle and requires
// identical bits in every coefficient and the log-likelihood, and the same
// iteration count and convergence flag.
func assertLogitBitIdentical(t *testing.T, x *Matrix, y []float64, opt LogitOptions) {
	t.Helper()
	got, err := Logit(make([]string, x.Cols), x, y, opt)
	if err != nil {
		t.Fatal(err)
	}
	want := logitOracle(x, y, opt)
	if got.Iterations != want.Iterations || got.Converged != want.Converged {
		t.Fatalf("iterations %d converged %v, oracle %d %v", got.Iterations, got.Converged, want.Iterations, want.Converged)
	}
	for j := range want.Coef {
		if math.Float64bits(got.Coef[j]) != math.Float64bits(want.Coef[j]) {
			t.Fatalf("coef[%d] = %v (%#x), oracle %v (%#x)", j, got.Coef[j], math.Float64bits(got.Coef[j]),
				want.Coef[j], math.Float64bits(want.Coef[j]))
		}
	}
	if math.Float64bits(got.LogLik) != math.Float64bits(want.LogLik) {
		t.Fatalf("loglik %v, oracle %v", got.LogLik, want.LogLik)
	}
}

func TestLogitMatchesDenseKernelOracleSparse(t *testing.T) {
	x, y := earLikeDesign(rand.New(rand.NewSource(41)), 3000, 3)
	var zeros, negZeros int
	for _, v := range x.Data {
		if v == 0 {
			zeros++
			if math.Signbit(v) {
				negZeros++
			}
		}
	}
	if 2*zeros < len(x.Data) || negZeros == 0 {
		t.Fatalf("design has %d zeros (%d negative) of %d entries; want ≥50%% zeros including -0",
			zeros, negZeros, len(x.Data))
	}
	assertLogitBitIdentical(t, x, y, LogitOptions{Ridge: 3.0, MaxIter: 60})
	assertLogitBitIdentical(t, x, y, LogitOptions{Ridge: 0.5, MaxIter: 4})
}

func TestLogitMatchesDenseKernelOracleDense(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	n, dim := 2000, 6
	x := NewMatrix(n, dim)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		var z float64
		for j := 0; j < dim; j++ {
			v := rng.NormFloat64()
			x.Set(i, j, v)
			z += float64(j-2) * 0.3 * v
		}
		if rng.Float64() < Sigmoid(z) {
			y[i] = 1
		}
	}
	assertLogitBitIdentical(t, x, y, LogitOptions{})
	assertLogitBitIdentical(t, x, y, LogitOptions{Ridge: 1.0})
}

// BenchmarkLogit fits the eAR model's shape: 60,000 engagement-log rows at
// the eAR design width with its ridge and iteration cap.
func BenchmarkLogit(b *testing.B) {
	x, y := earLikeDesign(rand.New(rand.NewSource(43)), 60000, 0)
	names := make([]string, x.Cols)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Logit(names, x, y, LogitOptions{Ridge: 3.0, MaxIter: 60}); err != nil {
			b.Fatal(err)
		}
	}
}
