// The network fault plan (netchaos) is the network-level sibling of
// internal/faultinject: a deterministic, seeded fault plan for the wires
// BETWEEN processes where faultinject perturbs the sampling stack INSIDE
// one. The tier's
// conservation argument ("every acknowledged shard counts exactly once,
// fleet-wide") is only as strong as its behavior when the network lies —
// partitions, lost responses after delivery, duplicated deliveries,
// reordering, trickling reads — so this plan exists to make that
// claim falsifiable the same way faultinject made the paper's loss
// claim falsifiable.
//
// A Plan wraps an http.RoundTripper per logical client ("router",
// "client") and injects, per (src, dst) link:
//
//   - partitions: symmetric or asymmetric link cuts, installed and
//     healed explicitly (ApplyPhase) — the nemesis
//     schedule, not per-request chance, decides these;
//   - latency and jitter: a seeded delay before the request is sent;
//   - reordering: a longer seeded hold that lets later requests pass;
//   - connection resets BEFORE delivery (the server never saw it) and
//     AFTER delivery (the server processed it, the response is lost —
//     the case that forces receivers to be idempotent);
//   - duplicated deliveries: the request is delivered again in the
//     background after the first response returns;
//   - slow-drip responses: the body arrives in small chunks with a
//     delay per chunk, exercising read-deadline handling.
//
// Determinism: each link draws from its own RNG stream, split off the
// plan seed by hashing the link name, so goroutine interleaving ACROSS
// links cannot perturb another link's fault sequence. Within one link,
// decisions are drawn in request order under a lock; runs are exactly
// reproducible whenever each link's request order is (single-submitter
// tests), and statistically reproducible otherwise — either way the
// seed pins the whole fault population, which is what a replaying
// debugger needs first. It is test equipment: only the nemesis soak
// (nemesis_test.go) wires it in.

package cluster

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"

	"profileme/internal/stats"
)

// Rates parameterizes a Plan: per-request probabilities in [0, 1] plus
// the durations the timing faults insert. Partitions are NOT here —
// they are schedule-driven (ApplyPhase), because a
// partition is a state, not a per-request coin flip.
type Rates struct {
	// Latency is the probability a request is delayed before sending;
	// the delay is uniform in [LatencyMin, LatencyMax].
	Latency    float64
	LatencyMin time.Duration
	LatencyMax time.Duration
	// Reorder is the probability a request is held for ReorderDelay
	// before sending, letting requests issued after it overtake it.
	Reorder      float64
	ReorderDelay time.Duration
	// ResetBefore is the probability the connection resets before the
	// request reaches the server (nothing was delivered).
	ResetBefore float64
	// ResetAfter is the probability the request IS delivered and
	// processed but the response is lost (reset while reading). The
	// caller sees a transport error for work that happened — the
	// idempotency-forcing fault.
	ResetAfter float64
	// Duplicate is the probability the request is delivered a second
	// time in the background after the first response returns. Requires
	// a replayable body (http.Request.GetBody non-nil) — others skip.
	Duplicate float64
	// Drip is the probability the response body is rewrapped to arrive
	// in DripChunk-byte pieces with DripDelay between them.
	Drip      float64
	DripChunk int
	DripDelay time.Duration
}

// Light returns mild per-request rates (a few percent of requests
// perturbed, small delays) suitable for a CI-speed nemesis smoke.
func Light() Rates {
	return Rates{
		Latency:      0.25,
		LatencyMin:   200 * time.Microsecond,
		LatencyMax:   3 * time.Millisecond,
		Reorder:      0.05,
		ReorderDelay: 5 * time.Millisecond,
		ResetBefore:  0.03,
		ResetAfter:   0.03,
		Duplicate:    0.05,
		Drip:         0.05,
		DripChunk:    2048,
		DripDelay:    500 * time.Microsecond,
	}
}

// validate reports a Rates problem, or nil.
func (r Rates) validate() error {
	probs := []struct {
		name string
		p    float64
	}{
		{"latency", r.Latency},
		{"reorder", r.Reorder},
		{"reset-before", r.ResetBefore},
		{"reset-after", r.ResetAfter},
		{"duplicate", r.Duplicate},
		{"drip", r.Drip},
	}
	for _, pr := range probs {
		if pr.p < 0 || pr.p > 1 || pr.p != pr.p {
			return fmt.Errorf("netchaos: %s rate %v outside [0, 1]", pr.name, pr.p)
		}
	}
	if r.LatencyMin < 0 || r.LatencyMax < r.LatencyMin {
		return fmt.Errorf("netchaos: latency range [%v, %v] invalid", r.LatencyMin, r.LatencyMax)
	}
	if r.ReorderDelay < 0 || r.DripDelay < 0 || r.DripChunk < 0 {
		return fmt.Errorf("netchaos: negative fault duration or chunk")
	}
	return nil
}

// Counts is the plan's ledger of injected faults, for reconciling a
// nemesis run against what the tier reported.
type Counts struct {
	Requests     uint64
	Partitioned  uint64
	Delayed      uint64
	Reordered    uint64
	ResetsBefore uint64
	ResetsAfter  uint64
	Duplicated   uint64
	Dripped      uint64
}

// errPartitioned is the transport error a cut link returns; it unwraps
// so tests can assert the failure class.
var errPartitioned = errors.New("netchaos: link partitioned")

// errReset is the transport error injected resets return.
var errReset = errors.New("netchaos: connection reset")

// link is one directed (src, dst) edge's fault state.
type link struct {
	rng *stats.RNG
	cut bool
}

// Plan is a seeded network fault plan shared by every Transport wrapped
// from it. Safe for concurrent use; per-link decisions serialize on the
// plan lock, drawing from that link's own RNG stream.
type Plan struct {
	seed  uint64
	rates Rates

	mu     sync.Mutex
	links  map[string]*link // "src|dst" -> state
	hosts  map[string]string
	quiet  bool // Quiesce was called: nothing is injected any more
	counts Counts
	wg     sync.WaitGroup // in-flight background duplicate deliveries
}

// newPlan builds a plan drawing from seed.
func newPlan(seed uint64, r Rates) (*Plan, error) {
	if err := r.validate(); err != nil {
		return nil, err
	}
	return &Plan{
		seed:  seed,
		rates: r,
		links: make(map[string]*link),
		hosts: make(map[string]string),
	}, nil
}

// MustNewPlan is newPlan for static rates that cannot fail.
func MustNewPlan(seed uint64, r Rates) *Plan {
	p, err := newPlan(seed, r)
	if err != nil {
		panic(err)
	}
	return p
}

// RegisterHost names a destination: requests to hostport (the URL's
// Host) count as the link (src, name). Unregistered hosts fall back to
// the raw hostport as the link name — still deterministic, just less
// readable and not addressable by partition.
func (p *Plan) RegisterHost(hostport, name string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.hosts[hostport] = name
}

// linkFor resolves the directed link state, creating it with its own
// seeded RNG stream on first use. Caller holds p.mu.
func (p *Plan) linkFor(src, dst string) *link {
	key := src + "|" + dst
	l := p.links[key]
	if l == nil {
		// Split the link's stream off the plan seed by the link name, so
		// the fault sequence on one link is independent of traffic on any
		// other — cross-link goroutine interleavings cannot change it.
		h := p.seed
		for i := 0; i < len(key); i++ {
			h = (h ^ uint64(key[i])) * 1099511628211
		}
		l = &link{rng: stats.NewRNG(h)}
		p.links[key] = l
	}
	return l
}

// partition cuts the directed link src->dst. Cut both directions for a
// symmetric partition; one for an asymmetric one (requests die, the
// reverse path still works).
func (p *Plan) partition(src, dst string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.linkFor(src, dst).cut = true
}

// heal restores the directed link src->dst.
func (p *Plan) heal(src, dst string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.linkFor(src, dst).cut = false
}

// HealAll restores every link.
func (p *Plan) HealAll() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, l := range p.links {
		l.cut = false
	}
}

// Quiesce stops the plan injecting for good: every later request passes
// through untouched — no cut, no per-request draw. HealAll only ends the
// partitions; a check that must see the network behave (a post-chaos
// retry whose answer is asserted exactly) calls this first, or a drawn
// reset can still turn the request into a legitimate failover.
func (p *Plan) Quiesce() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.quiet = true
}

// Counts returns a snapshot of the injected-fault ledger.
func (p *Plan) Counts() Counts {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.counts
}

// Wait blocks until background duplicate deliveries finish — call
// before asserting fleet state, or a late duplicate can race the check.
func (p *Plan) Wait() { p.wg.Wait() }

// decision is one request's drawn fault set.
type decision struct {
	cut       bool
	delay     time.Duration
	reorder   bool
	resetPre  bool
	resetPost bool
	duplicate bool
	drip      bool
}

// draw consumes the link's RNG in a fixed order — every fault class
// draws on every request, so one class's probability never shifts
// another's sequence.
func (p *Plan) draw(src, dst string) decision {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.counts.Requests++
	if p.quiet {
		return decision{}
	}
	l := p.linkFor(src, dst)
	var d decision
	d.cut = l.cut
	if l.rng.Bool(p.rates.Latency) {
		span := p.rates.LatencyMax - p.rates.LatencyMin
		extra := time.Duration(0)
		if span > 0 {
			extra = time.Duration(l.rng.Uint64() % uint64(span))
		}
		d.delay = p.rates.LatencyMin + extra
	}
	d.reorder = l.rng.Bool(p.rates.Reorder)
	d.resetPre = l.rng.Bool(p.rates.ResetBefore)
	d.resetPost = l.rng.Bool(p.rates.ResetAfter)
	d.duplicate = l.rng.Bool(p.rates.Duplicate)
	d.drip = l.rng.Bool(p.rates.Drip)
	switch {
	case d.cut:
		p.counts.Partitioned++
	case d.resetPre:
		p.counts.ResetsBefore++
	default:
		if d.delay > 0 {
			p.counts.Delayed++
		}
		if d.reorder {
			p.counts.Reordered++
		}
		if d.resetPost {
			p.counts.ResetsAfter++
		}
		if d.duplicate {
			p.counts.Duplicated++
		}
		if d.drip {
			p.counts.Dripped++
		}
	}
	return d
}

// Transport wraps next (nil = http.DefaultTransport) as the faulty
// network seen by the named source. Install it as an http.Client's
// Transport; every request through it draws from the plan.
func (p *Plan) Transport(src string, next http.RoundTripper) http.RoundTripper {
	if next == nil {
		next = http.DefaultTransport
	}
	return &transport{plan: p, src: src, next: next}
}

type transport struct {
	plan *Plan
	src  string
	next http.RoundTripper
}

// RoundTrip applies the drawn fault set in wire order: partition and
// pre-delivery resets kill the request before the server sees it;
// latency/reorder delays precede sending; post-delivery resets let the
// server finish, drain the response, and report a transport error;
// duplication re-delivers in the background; drip slows the body.
func (t *transport) RoundTrip(req *http.Request) (*http.Response, error) {
	p := t.plan
	dst := req.URL.Host
	p.mu.Lock()
	if name, ok := p.hosts[dst]; ok {
		dst = name
	}
	p.mu.Unlock()
	d := p.draw(t.src, dst)
	if d.cut {
		if req.Body != nil {
			req.Body.Close()
		}
		return nil, fmt.Errorf("%w: %s -> %s", errPartitioned, t.src, dst)
	}
	if d.resetPre {
		if req.Body != nil {
			req.Body.Close()
		}
		return nil, fmt.Errorf("%w before delivery: %s -> %s", errReset, t.src, dst)
	}
	hold := d.delay
	if d.reorder {
		hold += p.rates.ReorderDelay
	}
	if hold > 0 {
		select {
		case <-req.Context().Done():
			if req.Body != nil {
				req.Body.Close()
			}
			return nil, req.Context().Err()
		case <-time.After(hold):
		}
	}
	resp, err := t.next.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	if d.duplicate && req.GetBody != nil {
		// Redeliver in the background, detached from the caller's context
		// (a real duplicated packet does not care that the client went
		// away). The response is discarded — only the delivery matters.
		if body, berr := req.GetBody(); berr == nil {
			dup := req.Clone(req.Context())
			dup.Body = body
			p.wg.Add(1)
			go func() {
				defer p.wg.Done()
				r2, e2 := t.next.RoundTrip(dup)
				if e2 == nil {
					io.Copy(io.Discard, io.LimitReader(r2.Body, 1<<20))
					r2.Body.Close()
				}
			}()
		}
	}
	if d.resetPost {
		// The server processed the request; the client never learns.
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
		resp.Body.Close()
		return nil, fmt.Errorf("%w after delivery: %s -> %s", errReset, t.src, dst)
	}
	if d.drip {
		chunk := p.rates.DripChunk
		if chunk <= 0 {
			chunk = 1024
		}
		resp.Body = &dripBody{r: resp.Body, chunk: chunk, delay: p.rates.DripDelay}
	}
	return resp, nil
}

// dripBody trickles reads through in bounded chunks with a delay before
// each, simulating a saturated or shaped path.
type dripBody struct {
	r     io.ReadCloser
	chunk int
	delay time.Duration
}

func (d *dripBody) Read(b []byte) (int, error) {
	if d.delay > 0 {
		time.Sleep(d.delay)
	}
	if len(b) > d.chunk {
		b = b[:d.chunk]
	}
	return d.r.Read(b)
}

func (d *dripBody) Close() error { return d.r.Close() }

// Phase is one step of a nemesis schedule: the set of directed cuts in
// force until the next phase.
type Phase struct {
	// Name labels the phase in logs ("p3: cut router->c1 sym").
	Name string
	// Cuts are the directed links down during this phase.
	Cuts [][2]string
}

// Schedule generates a deterministic partition schedule: n phases over
// the given sources and destinations, each phase cutting one link
// symmetrically, one asymmetrically, or nothing (heal), drawn from the
// plan seed. The caller applies phases with ApplyPhase between workload
// waves; the same (seed, srcs, dsts, n) always yields the same
// schedule.
func Schedule(seed uint64, srcs, dsts []string, n int) []Phase {
	rng := stats.NewRNG(seed ^ 0x9e3779b97f4a7c15)
	srcs = append([]string(nil), srcs...)
	dsts = append([]string(nil), dsts...)
	sort.Strings(srcs)
	sort.Strings(dsts)
	phases := make([]Phase, 0, n)
	for i := 0; i < n; i++ {
		var ph Phase
		if len(srcs) > 0 && len(dsts) > 0 {
			src := srcs[rng.Intn(len(srcs))]
			dst := dsts[rng.Intn(len(dsts))]
			switch rng.Intn(3) {
			case 0: // symmetric cut
				ph.Name = fmt.Sprintf("p%d: cut %s<->%s", i, src, dst)
				ph.Cuts = [][2]string{{src, dst}, {dst, src}}
			case 1: // asymmetric cut
				ph.Name = fmt.Sprintf("p%d: cut %s->%s", i, src, dst)
				ph.Cuts = [][2]string{{src, dst}}
			default: // heal
				ph.Name = fmt.Sprintf("p%d: heal", i)
			}
		} else {
			ph.Name = fmt.Sprintf("p%d: heal", i)
		}
		phases = append(phases, ph)
	}
	return phases
}

// ApplyPhase heals every link, then installs the phase's cuts.
func (p *Plan) ApplyPhase(ph Phase) {
	p.HealAll()
	for _, c := range ph.Cuts {
		p.partition(c[0], c[1])
	}
}
