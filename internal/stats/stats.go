package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Running accumulates a streaming mean. The zero value is an empty
// accumulator ready for use.
type Running struct {
	n    int64
	mean float64
}

// Add folds x into the accumulator.
func (a *Running) Add(x float64) {
	a.n++
	a.mean += (x - a.mean) / float64(a.n)
}

// Mean returns the sample mean, or 0 when empty.
func (a *Running) Mean() float64 { return a.mean }

// Weighted accumulates weighted first and second moments. The paper's §6
// reports the standard deviation of windowed IPC "weighted by retire count";
// this is the accumulator for that kind of statistic.
type Weighted struct {
	wsum, mean, m2 float64
}

// Add folds x with weight w (w must be non-negative; zero weights are
// ignored).
func (a *Weighted) Add(x, w float64) {
	if w <= 0 {
		return
	}
	a.wsum += w
	d := x - a.mean
	a.mean += d * w / a.wsum
	a.m2 += w * d * (x - a.mean)
}

// Mean returns the weighted mean.
func (a *Weighted) Mean() float64 { return a.mean }

// variance returns the weighted population variance.
func (a *Weighted) variance() float64 {
	if a.wsum == 0 {
		return 0
	}
	return a.m2 / a.wsum
}

// StdDev returns the weighted population standard deviation.
func (a *Weighted) StdDev() float64 { return math.Sqrt(a.variance()) }

// Quantile returns the q-quantile (0 <= q <= 1) of xs using linear
// interpolation. It sorts a copy; xs is not modified.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	pos := q * float64(len(s)-1)
	i := int(pos)
	frac := pos - float64(i)
	if i+1 >= len(s) {
		return s[i]
	}
	return s[i]*(1-frac) + s[i+1]*frac
}

// Histogram is a fixed-bin-width histogram over int64 keys. It is used for
// the Figure 2 PC-offset histograms and for latency distributions.
type Histogram struct {
	counts map[int64]int64
	total  int64
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	return &Histogram{counts: make(map[int64]int64)}
}

// Add increments the count for key.
func (h *Histogram) Add(key int64) { h.AddN(key, 1) }

// AddN adds n observations of key.
func (h *Histogram) AddN(key, n int64) {
	h.counts[key] += n
	h.total += n
}

// Count returns the number of observations of key.
func (h *Histogram) Count(key int64) int64 { return h.counts[key] }

// Total returns the total number of observations.
func (h *Histogram) Total() int64 { return h.total }

// Keys returns the observed keys in ascending order.
func (h *Histogram) Keys() []int64 {
	keys := make([]int64, 0, len(h.counts))
	for k := range h.counts {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

// Fraction returns the fraction of observations at key, or 0 when empty.
func (h *Histogram) Fraction(key int64) float64 {
	if h.total == 0 {
		return 0
	}
	return float64(h.counts[key]) / float64(h.total)
}

// Mode returns the key with the highest count and that count. When the
// histogram is empty it returns (0, 0).
func (h *Histogram) Mode() (key int64, count int64) {
	first := true
	for k, c := range h.counts {
		if first || c > count || (c == count && k < key) {
			key, count, first = k, c, false
		}
	}
	return key, count
}

// Spread returns the smallest number of consecutive keys (by sorted order,
// not necessarily contiguous values) whose counts sum to at least fraction
// frac of the total. It quantifies how concentrated a distribution is: the
// Figure 2 experiment reports, e.g., that 90% of in-order samples land on 1
// key while out-of-order samples spread over ~25.
func (h *Histogram) Spread(frac float64) int {
	if h.total == 0 {
		return 0
	}
	counts := make([]int64, 0, len(h.counts))
	for _, c := range h.counts {
		counts = append(counts, c)
	}
	sort.Slice(counts, func(i, j int) bool { return counts[i] > counts[j] })
	need := int64(math.Ceil(frac * float64(h.total)))
	var sum int64
	for i, c := range counts {
		sum += c
		if sum >= need {
			return i + 1
		}
	}
	return len(counts)
}

// Render returns a text rendering of the histogram with proportional bars,
// suitable for terminal output. label maps keys to row labels.
func (h *Histogram) Render(width int, label func(int64) string) string {
	keys := h.Keys()
	_, maxCount := h.Mode()
	var b strings.Builder
	for _, k := range keys {
		c := h.counts[k]
		bar := 0
		if maxCount > 0 {
			bar = int(float64(c) / float64(maxCount) * float64(width))
		}
		fmt.Fprintf(&b, "%12s %8d %5.1f%% %s\n", label(k), c, 100*h.Fraction(k), strings.Repeat("#", bar))
	}
	return b.String()
}

// EnvelopeFraction returns the fraction of (x, ratio) points that fall within
// the 1 ± 1/√x envelope used by the paper's Figure 3: for each point, x is
// the number of samples with the property and ratio is estimate/actual.
// Points with x == 0 are skipped.
func EnvelopeFraction(xs, ratios []float64) float64 {
	if len(xs) != len(ratios) {
		panic("stats: EnvelopeFraction length mismatch")
	}
	in, n := 0, 0
	for i, x := range xs {
		if x <= 0 {
			continue
		}
		n++
		half := 1 / math.Sqrt(x)
		if ratios[i] >= 1-half && ratios[i] <= 1+half {
			in++
		}
	}
	if n == 0 {
		return 0
	}
	return float64(in) / float64(n)
}
