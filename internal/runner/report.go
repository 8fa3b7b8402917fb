package runner

import (
	"fmt"
	"strings"
)

// Report is the campaign's degradation report: what completed, what was
// retried, what was dead-lettered, and how much sampling was captured
// versus lost — the fleet-level counterpart of a single run's chaos
// summary.
type Report struct {
	JobsTotal    int `json:"jobs_total"`
	Completed    int `json:"completed"`
	Retried      int `json:"retried"` // completed jobs that needed >1 attempt
	DeadLettered int `json:"dead_lettered"`
	Pending      int `json:"pending"`  // left unfinished by a drain
	Attempts     int `json:"attempts"` // total attempts charged

	// Sampling rollup: captured is hardware-side (core.Stats) over
	// completed jobs; delivered/lost/corrupt-rejected come from the
	// aggregate database's loss accounting.
	SamplesCaptured  uint64  `json:"samples_captured"`
	SamplesDelivered uint64  `json:"samples_delivered"`
	SamplesLost      uint64  `json:"samples_lost"`
	CorruptRejected  uint64  `json:"corrupt_rejected"`
	LossRate         float64 `json:"loss_rate"`

	Retired uint64 `json:"retired"`
	Cycles  int64  `json:"cycles"`

	// Remote delivery (only populated when a sink is configured): a
	// submit-failed shard still lives in the local aggregate.
	ShardsSubmitted    uint64 `json:"shards_submitted,omitempty"`
	ShardsSubmitFailed uint64 `json:"shards_submit_failed,omitempty"`

	Drained     bool     `json:"drained"` // a graceful drain cut the campaign short
	DeadLetters []string `json:"dead_letters,omitempty"`
}

// buildReport derives the report from the job ledger and the aggregate.
func (f *Fleet) buildReport() *Report {
	r := &Report{JobsTotal: len(f.records), Drained: f.drained}
	for _, rec := range f.records {
		r.Attempts += rec.Attempts
		switch rec.Status {
		case statusDone:
			r.Completed++
			if rec.Attempts > 1 {
				r.Retried++
			}
		case statusDead:
			r.DeadLettered++
			r.DeadLetters = append(r.DeadLetters, rec.Job.ID)
		default:
			r.Pending++
		}
	}
	r.Retired = f.totals.Retired
	r.Cycles = f.totals.Cycles
	r.SamplesCaptured = f.totals.SamplesCaptured
	r.ShardsSubmitted = f.totals.ShardsSubmitted
	r.ShardsSubmitFailed = f.totals.ShardsSubmitFailed
	if f.agg != nil {
		r.SamplesDelivered = f.agg.Samples()
		r.SamplesLost = f.agg.Lost()
		r.CorruptRejected = f.agg.CorruptRejected()
		r.LossRate = f.agg.LossRate()
	}
	return r
}

// String renders the report as the pmsim fleet summary.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "fleet: %d/%d jobs completed (%d retried, %d dead-lettered, %d pending; %d attempts)\n",
		r.Completed, r.JobsTotal, r.Retried, r.DeadLettered, r.Pending, r.Attempts)
	fmt.Fprintf(&b, "samples: %d delivered, %d lost (%d corrupt-rejected), loss rate %.1f%%; %d captured by hardware\n",
		r.SamplesDelivered, r.SamplesLost, r.CorruptRejected, 100*r.LossRate, r.SamplesCaptured)
	fmt.Fprintf(&b, "work: %d instructions retired over %d simulated cycles\n", r.Retired, r.Cycles)
	if r.ShardsSubmitted+r.ShardsSubmitFailed > 0 {
		fmt.Fprintf(&b, "collector: %d shards delivered, %d undeliverable (kept local)\n",
			r.ShardsSubmitted, r.ShardsSubmitFailed)
	}
	if r.Drained {
		fmt.Fprintf(&b, "campaign drained before completion; resume with -resume to finish %d pending jobs\n", r.Pending)
	}
	if len(r.DeadLetters) > 0 {
		fmt.Fprintf(&b, "dead letters: %s\n", strings.Join(r.DeadLetters, ", "))
	}
	return b.String()
}
