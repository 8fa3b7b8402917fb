package experiments

import (
	"fmt"
	"strings"

	"profileme/internal/pathprof"
)

// CSV renders the Figure 2 histograms as rows of
// machine,offset,count,fraction.
func (r *figure2Result) CSV() string {
	var b strings.Builder
	b.WriteString("machine,offset,count,fraction\n")
	for _, k := range r.InOrder.Keys() {
		fmt.Fprintf(&b, "in-order,%d,%d,%.6f\n", k, r.InOrder.Count(k), r.InOrder.Fraction(k))
	}
	for _, k := range r.OutOfOrder.Keys() {
		fmt.Fprintf(&b, "out-of-order,%d,%d,%.6f\n", k, r.OutOfOrder.Count(k), r.OutOfOrder.Fraction(k))
	}
	return b.String()
}

// CSV renders every Figure 3 point as
// benchmark,interval,metric,pc,samples,ratio — the scatter the figure
// plots (x = samples, y = ratio).
func (r *figure3Result) CSV() string {
	var b strings.Builder
	b.WriteString("benchmark,interval,metric,pc,samples,ratio\n")
	for _, s := range r.Series {
		for _, p := range s.Retire {
			fmt.Fprintf(&b, "%s,%.0f,retire,%#x,%d,%.6f\n", s.Benchmark, s.Interval, p.PC, p.Samples, p.Ratio)
		}
		for _, p := range s.DMiss {
			fmt.Fprintf(&b, "%s,%.0f,dmiss,%#x,%d,%.6f\n", s.Benchmark, s.Interval, p.PC, p.Samples, p.Ratio)
		}
	}
	return b.String()
}

// CSV renders the Figure 6 curves as mode,scheme,history_length,rate.
func (r *figure6Result) CSV() string {
	var b strings.Builder
	b.WriteString("mode,scheme,history_length,success,total,rate\n")
	for mi, mode := range r.Modes {
		for s := pathprof.Scheme(0); int(s) < pathprof.NumSchemes; s++ {
			for li, hl := range r.HistoryLens {
				c := r.Cells[mi][int(s)][li]
				fmt.Fprintf(&b, "%s,%s,%d,%d,%d,%.6f\n", mode, s, hl, c.Success, c.Total, c.Rate())
			}
		}
	}
	return b.String()
}

// CSV renders the Figure 7 scatter as
// loop,pc,latency,wasted_true,wasted_est.
func (r *figure7Result) CSV() string {
	var b strings.Builder
	b.WriteString("loop,pc,latency,wasted_true,wasted_est\n")
	for _, p := range r.Points {
		est := ""
		if p.EstOK {
			est = fmt.Sprintf("%.0f", p.EstWasted)
		}
		fmt.Fprintf(&b, "%s,%#x,%d,%d,%s\n", p.Loop, p.PC, p.Latency, p.Wasted, est)
	}
	return b.String()
}

// CSV renders the §6 table as benchmark rows.
func (r *section6Result) CSV() string {
	var b strings.Builder
	b.WriteString("benchmark,windows,mean_ipc,min_ipc,max_ipc,maxmin_ratio,weighted_cov\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%s,%d,%.4f,%.4f,%.4f,%.2f,%.4f\n",
			row.Benchmark, row.Windows, row.MeanIPC, row.MinIPC, row.MaxIPC,
			row.MaxMinRatio, row.WeightedCoV)
	}
	return b.String()
}

// CSV renders the Table 1 matrix as kernel rows.
func (r *table1Result) CSV() string {
	var b strings.Builder
	b.WriteString("kernel,fetch_map,map_dataready,dataready_issue,issue_retireready,retireready_retire,load_completion,samples\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%s,%.2f,%.2f,%.2f,%.2f,%.2f,%.2f,%d\n",
			row.Kernel, row.Lat[0], row.Lat[1], row.Lat[2], row.Lat[3], row.Lat[4],
			row.MemLat, row.Samples)
	}
	return b.String()
}

// CSV renders the blind-spot comparison as one row per profiler.
func (r *blindSpotResult) CSV() string {
	var b strings.Builder
	b.WriteString("profiler,samples,share_inside,share_after,true_share\n")
	fmt.Fprintf(&b, "counters,%d,%.4f,%.4f,%.4f\n",
		r.CounterSamples, r.CounterShare, r.CounterAfterShare, r.TrueShare)
	fmt.Fprintf(&b, "profileme,%d,%.4f,,%.4f\n",
		r.ProfileSamples, r.ProfileShare, r.TrueShare)
	return b.String()
}
