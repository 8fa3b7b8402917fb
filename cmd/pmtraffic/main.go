// Command pmtraffic generates, records, replays, and inspects traffic
// traces for the collector tier.
//
// A trace spec (JSON, see internal/traffic) declares cohorts of shards
// with diurnal ramps and superimposed bursts; pmtraffic turns it into a
// deterministic submission schedule and either writes it to a versioned
// CRC-framed trace file, drives it at a live collector, or both. A
// captured trace replays bit-for-bit: the same trace against the same
// build puts the same bytes on the wire and yields the same final
// aggregate.
//
//	pmtraffic gen -spec load.json -out run.pmtf                 # record only
//	pmtraffic gen -spec load.json -submit http://localhost:7000 # drive live
//	pmtraffic replay -trace run.pmtf -submit http://localhost:7000 -speed 10
//	pmtraffic describe -trace run.pmtf
//	pmtraffic record -listen :7001 -to http://localhost:7000 -out cap.pmtf
//
// The record subcommand is the one live capture point: a relay that
// forwards every request to the upstream collector or router untouched
// and tees the /v1/submit bodies the collector's decoder accepts into a
// trace. Put it in front of a fleet's -submit, a router, or one instance;
// no daemon carries a capture flag or hook of its own. A replayed record
// travels as its bytes: the collector receives exactly what was captured.
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httputil"
	"net/url"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"profileme/internal/api"
	"profileme/internal/ingest"
	"profileme/internal/runner"
	"profileme/internal/traffic"
)

func main() { os.Exit(run(os.Args[1:])) }

func usage() {
	fmt.Fprintln(os.Stderr, `usage: pmtraffic <command> [flags]

commands:
  gen       generate traffic from a spec: write a trace and/or drive a collector
  replay    re-run a captured trace against a collector, optionally time-warped
  describe  print what a spec would generate or what a trace contains
  record    capturing relay: forward to an upstream, tee submissions to a trace

run 'pmtraffic <command> -h' for flags`)
}

func run(args []string) int {
	if len(args) == 0 {
		usage()
		return 2
	}
	// Records for a person at a terminal: gen and replay log each record
	// that fails delivery.
	log := slog.New(slog.NewTextHandler(os.Stderr, nil))
	switch args[0] {
	case "gen":
		return runGen(args[1:], log)
	case "replay":
		return runReplay(args[1:], log)
	case "describe":
		return runDescribe(args[1:])
	case "record":
		return runRecord(args[1:])
	case "-h", "-help", "--help", "help":
		usage()
		return 0
	default:
		fmt.Fprintf(os.Stderr, "pmtraffic: unknown command %q\n", args[0])
		usage()
		return 2
	}
}

// sinkFor builds the submission sink from a -submit value: comma-
// separated collector URLs, primary first, extras as transport-failover
// fallbacks (same contract as pmsim -submit).
func sinkFor(submit string) runner.Sink {
	var urls []string
	for _, u := range strings.Split(submit, ",") {
		if u = strings.TrimSpace(u); u != "" {
			urls = append(urls, u)
		}
	}
	if len(urls) == 0 {
		return nil
	}
	return runner.NewHTTPSink(urls[0], urls[1:]...)
}

// traceWriter opens path and frames it as a trace; the returned closer
// syncs before closing so a finished trace survives a crash.
func traceWriter(path string, meta traffic.Meta) (*traffic.Writer, func() error, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, nil, err
	}
	w, err := traffic.NewWriter(f, meta)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	closer := func() error {
		if err := f.Sync(); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	return w, closer, nil
}

func loadSpec(path string) (*traffic.Spec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return traffic.ParseSpec(raw)
}

func signalContext() (context.Context, context.CancelFunc) {
	return signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
}

func printReport(rep *traffic.Report, elapsed time.Duration) {
	fmt.Printf("pmtraffic: %d records, %d accepted, %d failed, %d retries in %s\n",
		rep.Records, rep.Accepted, rep.Failed, rep.Retries, elapsed.Round(time.Millisecond))
	cohorts := make([]string, 0, len(rep.ByCohort))
	for c := range rep.ByCohort {
		cohorts = append(cohorts, c)
	}
	sort.Strings(cohorts)
	for _, c := range cohorts {
		fmt.Printf("pmtraffic:   cohort %-12s %d records\n", c, rep.ByCohort[c])
	}
	fmt.Printf("pmtraffic: %d distinct shards offered, %d captured samples (conservation target)\n",
		rep.DistinctShards, rep.CapturedSum)
}

func runGen(args []string, log *slog.Logger) int {
	fs := flag.NewFlagSet("pmtraffic gen", flag.ExitOnError)
	var (
		specPath = fs.String("spec", "", "traffic spec JSON file (required)")
		out      = fs.String("out", "", "write the generated trace to this file")
		submit   = fs.String("submit", "", "also drive the schedule at this collector/router URL (comma-separated fallbacks)")
		speed    = fs.Float64("speed", 0, "pacing for -submit: 1 = modeled time, 2 = twice as fast, 0 = as fast as admitted")
		attempts = fs.Int("attempts", 10, "delivery attempts per record before it counts as failed")
		backoff  = fs.Duration("backoff", 100*time.Millisecond, "base retry backoff (doubles per attempt, capped)")
	)
	fs.Parse(args)
	if *specPath == "" || (*out == "" && *submit == "") {
		fmt.Fprintln(os.Stderr, "pmtraffic gen: need -spec and at least one of -out / -submit")
		return 2
	}
	sp, err := loadSpec(*specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pmtraffic gen:", err)
		return 2
	}

	var (
		w      *traffic.Writer
		closer func() error
	)
	if *out != "" {
		w, closer, err = traceWriter(*out, traffic.Meta{Spec: sp, Source: "pmtraffic gen"})
		if err != nil {
			fmt.Fprintln(os.Stderr, "pmtraffic gen:", err)
			return 1
		}
	}

	ctx, stop := signalContext()
	defer stop()
	start := time.Now()
	rep, err := traffic.Drive(ctx, sp, sinkFor(*submit), w,
		traffic.Options{Speed: *speed, MaxAttempts: *attempts, Backoff: *backoff, Log: log})
	elapsed := time.Since(start)
	if closer != nil {
		if cerr := closer(); cerr != nil && err == nil {
			err = cerr
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "pmtraffic gen:", err)
		return 1
	}
	printReport(rep, elapsed)
	if *out != "" {
		fmt.Printf("pmtraffic: trace written to %s\n", *out)
	}
	if rep.Failed > 0 {
		return 1
	}
	return 0
}

func runReplay(args []string, log *slog.Logger) int {
	fs := flag.NewFlagSet("pmtraffic replay", flag.ExitOnError)
	var (
		tracePath = fs.String("trace", "", "trace file to replay (required)")
		submit    = fs.String("submit", "", "collector/router URL to replay against (required; comma-separated fallbacks)")
		speed     = fs.Float64("speed", 1, "time-warp factor: 1 = recorded speed, 10 = 10x faster, 0 = as fast as admitted")
		attempts  = fs.Int("attempts", 10, "delivery attempts per record before it counts as failed")
		backoff   = fs.Duration("backoff", 100*time.Millisecond, "base retry backoff (doubles per attempt, capped)")
	)
	fs.Parse(args)
	if *tracePath == "" || *submit == "" {
		fmt.Fprintln(os.Stderr, "pmtraffic replay: need -trace and -submit")
		return 2
	}
	f, err := os.Open(*tracePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pmtraffic replay:", err)
		return 1
	}
	_, recs, err := traffic.ReadAll(f)
	f.Close()
	if err != nil {
		// A torn tail still yields every intact record; replaying a
		// damaged trace silently would break the determinism contract.
		fmt.Fprintf(os.Stderr, "pmtraffic replay: %s: %v (refusing to replay a damaged trace)\n", *tracePath, err)
		return 1
	}
	if len(recs) == 0 {
		fmt.Fprintln(os.Stderr, "pmtraffic replay: trace has no records")
		return 1
	}

	ctx, stop := signalContext()
	defer stop()
	start := time.Now()
	rep, err := traffic.Replay(ctx, recs, sinkFor(*submit),
		traffic.Options{Speed: *speed, MaxAttempts: *attempts, Backoff: *backoff, Log: log})
	if err != nil {
		fmt.Fprintln(os.Stderr, "pmtraffic replay:", err)
		return 1
	}
	printReport(rep, time.Since(start))
	if rep.Failed > 0 {
		return 1
	}
	return 0
}

func runDescribe(args []string) int {
	fs := flag.NewFlagSet("pmtraffic describe", flag.ExitOnError)
	var (
		tracePath = fs.String("trace", "", "describe a captured trace file")
		specPath  = fs.String("spec", "", "describe what a spec would generate")
	)
	fs.Parse(args)
	switch {
	case *tracePath != "":
		return describeTrace(*tracePath)
	case *specPath != "":
		return describeSpec(*specPath)
	default:
		fmt.Fprintln(os.Stderr, "pmtraffic describe: need -trace or -spec")
		return 2
	}
}

func describeTrace(path string) int {
	f, err := os.Open(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pmtraffic describe:", err)
		return 1
	}
	defer f.Close()
	meta, recs, rerr := traffic.ReadAll(f)
	if rerr != nil && meta.Source == "" && meta.Spec == nil && len(recs) == 0 {
		// Header-level damage: there is nothing recovered to describe.
		fmt.Fprintln(os.Stderr, "pmtraffic describe:", rerr)
		return 1
	}
	fmt.Printf("trace: %s\n", path)
	fmt.Printf("  source: %s\n", meta.Source)
	if meta.Spec != nil {
		fmt.Printf("  spec: seed %d, %gs modeled, interval %g, %d cohorts\n",
			meta.Spec.Seed, meta.Spec.DurationS, meta.Spec.Interval, len(meta.Spec.Cohorts))
	}
	fmt.Printf("  records: %d\n", len(recs))
	if len(recs) > 0 {
		fmt.Printf("  span: %s recorded\n",
			(time.Duration(recs[len(recs)-1].OffsetUS) * time.Microsecond).Round(time.Millisecond))
	}
	byCohort := map[string]int{}
	shards := map[string]bool{}
	var captured uint64
	for i := range recs {
		byCohort[recs[i].Cohort]++
		if !shards[recs[i].Shard] {
			shards[recs[i].Shard] = true
			if sub, err := ingest.DecodeSubmit(recs[i].Body); err == nil {
				captured += sub.Captured()
			}
		}
	}
	cohorts := make([]string, 0, len(byCohort))
	for c := range byCohort {
		cohorts = append(cohorts, c)
	}
	sort.Strings(cohorts)
	for _, c := range cohorts {
		name := c
		if name == "" {
			name = "(untagged)"
		}
		fmt.Printf("  cohort %-12s %d records\n", name, byCohort[c])
	}
	fmt.Printf("  distinct shards: %d, captured samples: %d\n", len(shards), captured)
	if rerr != nil {
		fmt.Fprintf(os.Stderr, "pmtraffic describe: trace damaged after record %d: %v\n", len(recs), rerr)
		return 1
	}
	return 0
}

func describeSpec(path string) int {
	sp, err := loadSpec(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pmtraffic describe:", err)
		return 2
	}
	sched, err := sp.Schedule()
	if err != nil {
		fmt.Fprintln(os.Stderr, "pmtraffic describe:", err)
		return 1
	}
	fmt.Printf("spec: %s\n", path)
	fmt.Printf("  seed %d, %gs modeled, interval %g\n", sp.Seed, sp.DurationS, sp.Interval)
	byCohort := map[string]int{}
	for _, a := range sched {
		byCohort[a.Cohort]++
	}
	for _, c := range sp.Cohorts {
		fmt.Printf("  cohort %-12s bench %-10s scale %-8d shards %-3d -> %d arrivals\n",
			c.Name, c.Bench, c.Scale, c.Shards, byCohort[c.Name])
	}
	fmt.Printf("  total: %d arrivals\n", len(sched))
	return 0
}

func runRecord(args []string) int {
	fs := flag.NewFlagSet("pmtraffic record", flag.ExitOnError)
	var (
		listen  = fs.String("listen", "127.0.0.1:7001", "relay listen address")
		to      = fs.String("to", "", "upstream collector/router base URL (required)")
		out     = fs.String("out", "", "trace file for captured submissions (required)")
		maxBody = fs.Int64("max-body", 8<<20, "submission body size limit in bytes")
	)
	fs.Parse(args)
	if *to == "" || *out == "" {
		fmt.Fprintln(os.Stderr, "pmtraffic record: need -to and -out")
		return 2
	}
	target, err := url.Parse(*to)
	if err != nil || target.Scheme == "" || target.Host == "" {
		fmt.Fprintf(os.Stderr, "pmtraffic record: bad -to URL %q\n", *to)
		return 2
	}
	w, closer, err := traceWriter(*out, traffic.Meta{Source: "pmtraffic record"})
	if err != nil {
		fmt.Fprintln(os.Stderr, "pmtraffic record:", err)
		return 1
	}
	cw := traffic.NewCaptureWriter(w)

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pmtraffic record:", err)
		return 1
	}
	fmt.Printf("pmtraffic: recording relay on %s -> %s, trace %s\n", ln.Addr(), target, *out)

	httpSrv := &http.Server{Handler: relayHandler(target, cw, *maxBody), ReadHeaderTimeout: 5 * time.Second}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	ctx, stop := signalContext()
	defer stop()
	select {
	case <-ctx.Done():
	case err := <-serveErr:
		fmt.Fprintln(os.Stderr, "pmtraffic record:", err)
		closer()
		return 1
	}
	stop()
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		fmt.Fprintln(os.Stderr, "pmtraffic record: shutdown:", err)
	}
	code := 0
	if err := cw.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "pmtraffic record: capture:", err)
		code = 1
	}
	if err := closer(); err != nil {
		fmt.Fprintln(os.Stderr, "pmtraffic record:", err)
		code = 1
	}
	fmt.Printf("pmtraffic: captured %d submissions to %s\n", cw.Count(), *out)
	return code
}

// relayHandler is the capturing relay: a plain reverse proxy to target
// with one extra behaviour — a POST /v1/submit body that
// ingest.DecodeSubmit accepts is teed into the trace before the upstream
// sees it. An undecodable body is forwarded untouched and not recorded:
// the upstream's 400 is authoritative, and a trace must hold only
// replayable records. The relay's own refusals (a body over maxBody, a
// body that cannot be read) are api.ReadBody's, the collector's own, so
// a fleet behind the relay logs the same kind it would without it.
func relayHandler(target *url.URL, cw *traffic.CaptureWriter, maxBody int64) http.Handler {
	proxy := httputil.NewSingleHostReverseProxy(target)
	return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && r.URL.Path == "/v1/submit" {
			body, err := api.ReadBody(rw, r, "submission", maxBody, nil)
			if err != nil {
				return
			}
			if sub, err := ingest.DecodeSubmit(body); err == nil {
				cw.Capture(sub.Shard, body)
			}
			r.Body = io.NopCloser(bytes.NewReader(body))
			r.ContentLength = int64(len(body))
		}
		proxy.ServeHTTP(rw, r)
	})
}
