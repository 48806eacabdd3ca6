package quadrature

import (
	"math"
	"testing"
)

func feq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestLegendreKnownValues(t *testing.T) {
	// P_2(x) = (3x²−1)/2, P_3(x) = (5x³−3x)/2
	for _, x := range []float64{-0.7, 0, 0.3, 1} {
		p2, dp2 := Legendre(2, x)
		if !feq(p2, (3*x*x-1)/2, 1e-14) {
			t.Fatalf("P2(%v) = %v", x, p2)
		}
		if x != 1 && !feq(dp2, 3*x, 1e-12) {
			t.Fatalf("P2'(%v) = %v", x, dp2)
		}
		p3, dp3 := Legendre(3, x)
		if !feq(p3, (5*x*x*x-3*x)/2, 1e-14) {
			t.Fatalf("P3(%v) = %v", x, p3)
		}
		if x != 1 && !feq(dp3, (15*x*x-3)/2, 1e-12) {
			t.Fatalf("P3'(%v) = %v", x, dp3)
		}
	}
	if p, _ := Legendre(0, 0.5); p != 1 {
		t.Fatal("P0 != 1")
	}
	// P_n(1) = 1 and P'_n(1) = n(n+1)/2
	for n := 1; n <= 8; n++ {
		p, dp := Legendre(n, 1)
		if !feq(p, 1, 1e-14) {
			t.Fatalf("P_%d(1) = %v", n, p)
		}
		if !feq(dp, float64(n*(n+1))/2, 1e-12) {
			t.Fatalf("P'_%d(1) = %v", n, dp)
		}
	}
}

func TestGaussLegendreKnownNodes(t *testing.T) {
	x, w := GaussLegendre(2)
	if !feq(x[0], -1/math.Sqrt(3), 1e-14) || !feq(x[1], 1/math.Sqrt(3), 1e-14) {
		t.Fatalf("GL2 nodes = %v", x)
	}
	if !feq(w[0], 1, 1e-14) || !feq(w[1], 1, 1e-14) {
		t.Fatalf("GL2 weights = %v", w)
	}
	x, w = GaussLegendre(3)
	if !feq(x[0], -math.Sqrt(0.6), 1e-13) || !feq(x[1], 0, 1e-13) || !feq(x[2], math.Sqrt(0.6), 1e-13) {
		t.Fatalf("GL3 nodes = %v", x)
	}
	if !feq(w[1], 8.0/9, 1e-13) || !feq(w[0], 5.0/9, 1e-13) {
		t.Fatalf("GL3 weights = %v", w)
	}
}

func TestGaussLegendreExactness(t *testing.T) {
	// n-point rule is exact for degree 2n−1.
	for n := 1; n <= 10; n++ {
		x, w := GaussLegendre(n)
		for deg := 0; deg <= 2*n-1; deg++ {
			sum := 0.0
			for i := range x {
				sum += w[i] * math.Pow(x[i], float64(deg))
			}
			want := 0.0
			if deg%2 == 0 {
				want = 2 / float64(deg+1)
			}
			if !feq(sum, want, 1e-12) {
				t.Fatalf("GL%d: ∫x^%d = %v, want %v", n, deg, sum, want)
			}
		}
	}
}

func TestGaussLobattoKnownNodes(t *testing.T) {
	// On [0,1]: Lobatto-2 = {0,1}; Lobatto-3 = {0, 1/2, 1};
	// Lobatto-4 interior = (1 ± 1/√5)/2; Lobatto-5 interior = {1/2, (1±√(3/7))/2}.
	n2 := GaussLobatto(2)
	if n2[0] != 0 || n2[1] != 1 {
		t.Fatalf("Lobatto2 = %v", n2)
	}
	n3 := GaussLobatto(3)
	if !feq(n3[1], 0.5, 1e-14) {
		t.Fatalf("Lobatto3 = %v", n3)
	}
	n4 := GaussLobatto(4)
	if !feq(n4[1], (1-1/math.Sqrt(5))/2, 1e-13) || !feq(n4[2], (1+1/math.Sqrt(5))/2, 1e-13) {
		t.Fatalf("Lobatto4 = %v", n4)
	}
	n5 := GaussLobatto(5)
	if !feq(n5[2], 0.5, 1e-13) || !feq(n5[1], (1-math.Sqrt(3.0/7))/2, 1e-13) {
		t.Fatalf("Lobatto5 = %v", n5)
	}
}

func TestGaussLobattoSortedDistinct(t *testing.T) {
	for n := 2; n <= 9; n++ {
		nodes := GaussLobatto(n)
		if len(nodes) != n {
			t.Fatalf("Lobatto%d has %d nodes", n, len(nodes))
		}
		for i := 1; i < n; i++ {
			if nodes[i] <= nodes[i-1] {
				t.Fatalf("Lobatto%d not strictly increasing: %v", n, nodes)
			}
		}
		if nodes[0] != 0 || nodes[n-1] != 1 {
			t.Fatalf("Lobatto%d endpoints: %v", n, nodes)
		}
	}
}

func TestLagrangeEvalReproducesPolynomials(t *testing.T) {
	nodes := GaussLobatto(5)
	w := BaryWeights(nodes)
	// Interpolating x³ through 5 nodes is exact.
	vals := make([]float64, len(nodes))
	for i, x := range nodes {
		vals[i] = x * x * x
	}
	for _, x := range []float64{0, 0.17, 0.5, 0.83, 1} {
		if got := LagrangeEval(nodes, w, vals, x); !feq(got, x*x*x, 1e-13) {
			t.Fatalf("interp(x³)(%v) = %v", x, got)
		}
	}
	// Evaluation exactly at a node returns the nodal value.
	if got := LagrangeEval(nodes, w, vals, nodes[2]); got != vals[2] {
		t.Fatalf("nodal eval = %v, want %v", got, vals[2])
	}
}

func TestIntegrateBasisPartitionOfUnity(t *testing.T) {
	// Σ_j ∫_a^b l_j = b − a (the basis sums to 1).
	nodes := GaussLobatto(4)
	ints := IntegrateBasis(nodes, 0.2, 0.9)
	sum := 0.0
	for _, v := range ints {
		sum += v
	}
	if !feq(sum, 0.7, 1e-13) {
		t.Fatalf("Σ∫l_j = %v, want 0.7", sum)
	}
}

func TestSMatrixIntegratesPolynomialsExactly(t *testing.T) {
	// For any polynomial f of degree ≤ n−1 sampled at the nodes,
	// Σ_j S[m][j] f(t_j) = ∫_{t_m}^{t_{m+1}} f.
	nodes := GaussLobatto(4)
	s := SMatrix(nodes)
	f := func(x float64) float64 { return 2 + x - 3*x*x + 0.5*x*x*x }
	F := func(x float64) float64 { return 2*x + x*x/2 - x*x*x + 0.125*x*x*x*x }
	for m := 0; m < len(nodes)-1; m++ {
		got := 0.0
		for j, tj := range nodes {
			got += s[m][j] * f(tj)
		}
		want := F(nodes[m+1]) - F(nodes[m])
		if !feq(got, want, 1e-13) {
			t.Fatalf("S row %d: %v, want %v", m, got, want)
		}
	}
}

func TestQMatrixIsPrefixSumOfS(t *testing.T) {
	nodes := GaussLobatto(5)
	s := SMatrix(nodes)
	q := QMatrix(nodes)
	for m := range q {
		for j := range q[m] {
			sum := 0.0
			for k := 0; k <= m; k++ {
				sum += s[k][j]
			}
			if !feq(q[m][j], sum, 1e-14) {
				t.Fatalf("Q[%d][%d] = %v, want %v", m, j, q[m][j], sum)
			}
		}
	}
}

func TestLobattoCollocationWeightsSuperconvergent(t *testing.T) {
	// The last row of Q holds the Lobatto quadrature weights, exact for
	// degree 2n−3 (> n−1, the interpolation degree).
	n := 4
	nodes := GaussLobatto(n)
	q := QMatrix(nodes)
	weights := q[len(q)-1]
	for deg := 0; deg <= 2*n-3; deg++ {
		got := 0.0
		for j, tj := range nodes {
			got += weights[j] * math.Pow(tj, float64(deg))
		}
		want := 1 / float64(deg+1)
		if !feq(got, want, 1e-13) {
			t.Fatalf("Lobatto%d weights: ∫x^%d = %v, want %v", n, deg, got, want)
		}
	}
}

func TestInterpMatrixCoarseToFine(t *testing.T) {
	coarse := GaussLobatto(2) // {0,1}
	fine := GaussLobatto(3)   // {0,1/2,1}
	p := InterpMatrix(coarse, fine)
	// Linear interpolation: value at 1/2 is the average of endpoints.
	if !feq(p[1][0], 0.5, 1e-14) || !feq(p[1][1], 0.5, 1e-14) {
		t.Fatalf("midpoint row = %v", p[1])
	}
	// Endpoints map identically.
	if !feq(p[0][0], 1, 1e-14) || !feq(p[2][1], 1, 1e-14) {
		t.Fatalf("endpoint rows: %v %v", p[0], p[2])
	}
}

func TestInterpMatrixExactForLowDegree(t *testing.T) {
	coarse := GaussLobatto(3)
	fine := GaussLobatto(5)
	p := InterpMatrix(coarse, fine)
	// degree-2 polynomial interpolates exactly from 3 nodes.
	f := func(x float64) float64 { return 1 - 2*x + 3*x*x }
	for i, x := range fine {
		got := 0.0
		for j, c := range coarse {
			got += p[i][j] * f(c)
		}
		if !feq(got, f(x), 1e-13) {
			t.Fatalf("interp at %v: %v, want %v", x, got, f(x))
		}
	}
}

func TestSubsetIndices(t *testing.T) {
	fine := GaussLobatto(3)
	coarse := GaussLobatto(2)
	idx, err := SubsetIndices(fine, coarse)
	if err != nil {
		t.Fatal(err)
	}
	if idx[0] != 0 || idx[1] != 2 {
		t.Fatalf("idx = %v", idx)
	}
	// Lobatto-4 interior nodes are NOT a subset of Lobatto-5.
	if _, err := SubsetIndices(GaussLobatto(5), GaussLobatto(4)); err == nil {
		t.Fatal("expected error for non-nested nodes")
	}
}

func TestPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { GaussLegendre(0) },
		func() { GaussLobatto(1) },
		func() { SMatrix([]float64{0.5}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestInterpMatrixPartitionOfUnity(t *testing.T) {
	// Lagrange bases sum to one, so every row of an interpolation
	// matrix sums to one — regardless of the node sets.
	cases := [][2][]float64{
		{GaussLobatto(2), GaussLobatto(3)},
		{GaussLobatto(3), GaussLobatto(5)},
		{{0, 1.0 / 3, 1}, GaussLobatto(4)},
		{{0, 1.0 / 3, 2.0 / 3, 1}, GaussLobatto(3)},
	}
	for _, c := range cases {
		p := InterpMatrix(c[0], c[1])
		for i, row := range p {
			sum := 0.0
			for _, v := range row {
				sum += v
			}
			if !feq(sum, 1, 1e-12) {
				t.Fatalf("row %d sums to %v", i, sum)
			}
		}
	}
}

func TestBaryWeightsAlternateInSign(t *testing.T) {
	// For sorted distinct nodes the barycentric weights alternate in
	// sign — a classical property that catches ordering bugs.
	for _, nodes := range [][]float64{GaussLobatto(4), GaussLobatto(6), {0, 0.25, 0.5, 0.75, 1}} {
		w := BaryWeights(nodes)
		for i := 1; i < len(w); i++ {
			if w[i]*w[i-1] >= 0 {
				t.Fatalf("weights do not alternate: %v", w)
			}
		}
	}
}
