package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at draw %d", i)
		}
	}
}

func TestRNGDistinctSeeds(t *testing.T) {
	a, b := NewRNG(1), NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("seeds 1 and 2 produced %d identical draws out of 100", same)
	}
}

func TestRNGSplitDecorrelates(t *testing.T) {
	a := NewRNG(7)
	c := a.Split()
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("split stream matched parent %d/100 times", same)
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(3)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestIntnUniform(t *testing.T) {
	r := NewRNG(11)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Intn(n)]++
	}
	want := draws / n
	for i, c := range counts {
		if c < want*8/10 || c > want*12/10 {
			t.Errorf("bucket %d has %d draws, want ~%d", i, c, want)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestIntRange(t *testing.T) {
	r := NewRNG(5)
	for i := 0; i < 10000; i++ {
		v := r.IntRange(3, 9)
		if v < 3 || v > 9 {
			t.Fatalf("IntRange(3,9) = %d", v)
		}
	}
	if got := r.IntRange(4, 4); got != 4 {
		t.Fatalf("IntRange(4,4) = %d", got)
	}
}

func TestGeometricMean(t *testing.T) {
	r := NewRNG(9)
	const mean, draws = 100.0, 200000
	sum := 0
	for i := 0; i < draws; i++ {
		v := r.Geometric(mean)
		if v < 1 {
			t.Fatalf("Geometric returned %d < 1", v)
		}
		sum += v
	}
	got := float64(sum) / draws
	if got < mean*0.97 || got > mean*1.03 {
		t.Fatalf("geometric mean = %.2f, want ~%.0f", got, mean)
	}
}

func TestGeometricDegenerate(t *testing.T) {
	r := NewRNG(1)
	for i := 0; i < 100; i++ {
		if v := r.Geometric(1); v != 1 {
			t.Fatalf("Geometric(1) = %d, want 1", v)
		}
		if v := r.Geometric(0); v != 1 {
			t.Fatalf("Geometric(0) = %d, want 1", v)
		}
	}
}

func TestUniformIntervalMean(t *testing.T) {
	r := NewRNG(13)
	const m, draws = 50, 200000
	sum := 0
	for i := 0; i < draws; i++ {
		v := r.UniformInterval(m)
		if v < 1 || v > 2*m-1 {
			t.Fatalf("UniformInterval out of range: %d", v)
		}
		sum += v
	}
	got := float64(sum) / draws
	if got < m*0.97 || got > m*1.03 {
		t.Fatalf("uniform interval mean = %.2f, want ~%d", got, m)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := NewRNG(17)
	p := r.Perm(100)
	seen := make([]bool, 100)
	for _, v := range p {
		if v < 0 || v >= 100 || seen[v] {
			t.Fatalf("not a permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestRunningMoments(t *testing.T) {
	var a Running
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	for _, x := range xs {
		a.Add(x)
	}
	if math.Abs(a.Mean()-5) > 1e-12 {
		t.Fatalf("mean = %v", a.Mean())
	}
}

func TestRunningEmpty(t *testing.T) {
	var a Running
	if a.Mean() != 0 {
		t.Fatal("empty accumulator should report a zero mean")
	}
}

func TestRunningMatchesBatch(t *testing.T) {
	f := func(xs []float64) bool {
		clean := xs[:0]
		for _, x := range xs {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e6 {
				clean = append(clean, x)
			}
		}
		if len(clean) < 2 {
			return true
		}
		var a Running
		for _, x := range clean {
			a.Add(x)
		}
		sum := 0.0
		for _, x := range clean {
			sum += x
		}
		return math.Abs(a.Mean()-sum/float64(len(clean))) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWeightedReducesToUnweighted(t *testing.T) {
	var w Weighted
	var u Running
	var xs []float64
	r := NewRNG(23)
	for i := 0; i < 1000; i++ {
		x := r.Float64() * 10
		w.Add(x, 1)
		u.Add(x)
		xs = append(xs, x)
	}
	if math.Abs(w.Mean()-u.Mean()) > 1e-9 {
		t.Fatalf("weighted mean %v != unweighted %v", w.Mean(), u.Mean())
	}
	v := 0.0
	for _, x := range xs {
		v += (x - u.Mean()) * (x - u.Mean())
	}
	if sd := math.Sqrt(v / float64(len(xs))); math.Abs(w.StdDev()-sd) > 1e-9 {
		t.Fatalf("weighted stddev %v != unweighted %v", w.StdDev(), sd)
	}
}

func TestWeightedIgnoresZeroWeight(t *testing.T) {
	var w Weighted
	w.Add(5, 2)
	w.Add(1e9, 0)
	w.Add(-1e9, -3)
	if w.Mean() != 5 || w.wsum != 2 {
		t.Fatalf("mean=%v wsum=%v", w.Mean(), w.wsum)
	}
}

func TestWeightedScaleInvariance(t *testing.T) {
	f := func(raw []float64) bool {
		var a, b Weighted
		for i, x := range raw {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e6 {
				return true
			}
			w := float64(i%3 + 1)
			a.Add(x, w)
			b.Add(x, w*7)
		}
		return math.Abs(a.Mean()-b.Mean()) < 1e-6 && math.Abs(a.variance()-b.variance()) < 1e-4*(1+a.variance())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct{ q, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5},
	}
	for _, c := range cases {
		if got := Quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if Quantile(nil, 0.5) != 0 {
		t.Error("empty quantile should be 0")
	}
}

func TestQuantileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Quantile(xs, 0.5)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatalf("input mutated: %v", xs)
	}
}

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram()
	h.Add(5)
	h.Add(5)
	h.AddN(7, 3)
	if h.Total() != 5 {
		t.Fatalf("total = %d", h.Total())
	}
	if h.Count(5) != 2 || h.Count(7) != 3 || h.Count(9) != 0 {
		t.Fatal("wrong counts")
	}
	if k, c := h.Mode(); k != 7 || c != 3 {
		t.Fatalf("mode = (%d, %d)", k, c)
	}
	keys := h.Keys()
	if len(keys) != 2 || keys[0] != 5 || keys[1] != 7 {
		t.Fatalf("keys = %v", keys)
	}
	if math.Abs(h.Fraction(7)-0.6) > 1e-12 {
		t.Fatalf("fraction = %v", h.Fraction(7))
	}
}

func TestHistogramSpread(t *testing.T) {
	h := NewHistogram()
	h.AddN(0, 90)
	for i := int64(1); i <= 10; i++ {
		h.AddN(i, 1)
	}
	if got := h.Spread(0.9); got != 1 {
		t.Fatalf("Spread(0.9) = %d, want 1", got)
	}
	if got := h.Spread(1.0); got != 11 {
		t.Fatalf("Spread(1.0) = %d, want 11", got)
	}

	flat := NewHistogram()
	for i := int64(0); i < 20; i++ {
		flat.AddN(i, 5)
	}
	if got := flat.Spread(0.9); got != 18 {
		t.Fatalf("flat Spread(0.9) = %d, want 18", got)
	}
}

func TestHistogramSpreadEmpty(t *testing.T) {
	if got := NewHistogram().Spread(0.9); got != 0 {
		t.Fatalf("empty Spread = %d", got)
	}
}

func TestHistogramRender(t *testing.T) {
	h := NewHistogram()
	h.AddN(1, 10)
	h.AddN(2, 5)
	out := h.Render(20, func(k int64) string { return "k" + string(rune('0'+k)) })
	if out == "" {
		t.Fatal("empty render")
	}
}

func TestEnvelopeFraction(t *testing.T) {
	// Points exactly on the boundary count as inside.
	xs := []float64{4, 4, 4, 100}
	ratios := []float64{1.5, 0.5, 1.6, 1.05}
	// envelopes: ±0.5 at x=4 (in, in, out), ±0.1 at x=100 (in)
	got := EnvelopeFraction(xs, ratios)
	if math.Abs(got-0.75) > 1e-12 {
		t.Fatalf("EnvelopeFraction = %v, want 0.75", got)
	}
}

func TestEnvelopeFractionSkipsZeroX(t *testing.T) {
	if got := EnvelopeFraction([]float64{0, 0}, []float64{1, 1}); got != 0 {
		t.Fatalf("got %v", got)
	}
}
