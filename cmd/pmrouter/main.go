// Command pmrouter is the collector tier's frontend: a thin router that
// places shard submissions onto N pmsimd instances with a
// consistent-hash ring (virtual nodes, keyed by shard id) and answers
// hot-PC/estimate/stats queries by scatter-gathering every reachable
// instance.
//
// Robustness contract:
//
//   - Submissions go to the shard's ring owner; if the owner is down or
//     draining the router fails over along the ring, and a sticky
//     placement map sends retries back to the instance whose admission
//     ledger already knows the shard — failover never double-merges.
//   - Queries fan out with a per-instance deadline and hedged
//     stragglers; instances that cannot answer degrade the response to
//     an explicit partial ("partial": true + instances-missing count)
//     instead of an all-or-nothing 504.
//   - A background probe loop watches each instance's /readyz, so a
//     SIGKILL'd instance stops receiving traffic within a probe period
//     and a recovered one rejoins automatically; an instance whose WAL
//     has stalled or failed reports 503 wal-stalled or wal-failed and is
//     degraded the same way.
//   - With -witness, every accepted submission is also copied to the
//     shard's ring successor as a witness; a periodic anti-entropy
//     sweep (-anti-entropy-every) reconciles witness ledgers against
//     live instances, so an instance that loses its disk entirely can
//     be rebuilt from its peers' copies.
//   - Membership is elastic: POST /v1/membership/add and /remove grow
//     or shrink the ring live (no restarts). Every change bumps the
//     ring epoch; moved shard ranges are migrated through the handoff
//     envelope and their admission-ledger entries adopted BEFORE the
//     ring commits, so a submit raced against a migration is never
//     lost and never double-merged — at worst it gets a typed 409
//     wrong-owner carrying the current epoch, and the retry dedupes to
//     202+duplicate. Migration progress is exposed in /v1/stats.
//
// The router places opaque bytes: it reads a body's shard id and nothing
// else, and links no package of this module but internal/cluster. The
// tier's offered load is captured from outside, by putting the pmtraffic
// record relay in front of it.
//
// Example (3-instance tier):
//
//	pmsimd -addr :7070 -instance c0
//	pmsimd -addr :7071 -instance c1
//	pmsimd -addr :7072 -instance c2
//	pmrouter -addr :7000 -instances c0=http://localhost:7070,c1=http://localhost:7071,c2=http://localhost:7072
//	pmsim -bench compress -fleet 4 -shards 16 -submit http://localhost:7000
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"profileme/internal/cluster"
)

func main() { os.Exit(run()) }

// parseInstances parses "id=url,id=url" into router instances.
func parseInstances(s string) ([]cluster.Instance, error) {
	if s == "" {
		return nil, errors.New("-instances is required (id=url,id=url,...)")
	}
	var out []cluster.Instance
	for _, part := range strings.Split(s, ",") {
		id, url, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok || id == "" || url == "" {
			return nil, fmt.Errorf("bad instance %q (want id=url)", part)
		}
		out = append(out, cluster.Instance{ID: id, BaseURL: strings.TrimRight(url, "/")})
	}
	return out, nil
}

func run() int {
	var (
		addr      = flag.String("addr", "127.0.0.1:7000", "listen address")
		instances = flag.String("instances", "", "collector instances as id=url,id=url,... (ring identity = id)")
		seed      = flag.Uint64("seed", 0, "virtual-node layout seed (same seed re-derives the same ring)")
		failures  = flag.Int("failure-threshold", 3, "consecutive transport failures that mark an instance down")
		probeEach = flag.Duration("probe-every", 2*time.Second, "active /readyz probe period (0 disables)")
		maxBody   = flag.Int64("max-body", 8<<20, "submission body size limit in bytes")

		witness = flag.Bool("witness", false, "replicate accepted submissions to the shard's ring successor as witness copies")
		aeEach  = flag.Duration("anti-entropy-every", 0, "witness anti-entropy sweep period (0 disables; requires -witness)")
	)
	flag.Parse()

	// One JSON logger for the process; the router adds its component
	// attribute to what it logs.
	logger := slog.New(slog.NewJSONHandler(os.Stderr, nil))
	log := logger.With("component", "pmrouter")

	// A command line that cannot run is refused before the port is bound.
	ins, err := parseInstances(*instances)
	if err == nil && *aeEach > 0 && !*witness {
		err = errors.New("-anti-entropy-every requires -witness")
	}
	if err != nil {
		log.Error("invalid flags", "err", err)
		return 2
	}
	rcfg := cluster.RouterConfig{
		Instances:        ins,
		Seed:             *seed,
		FailureThreshold: *failures,
		MaxBodyBytes:     *maxBody,
		Witness:          *witness,
		Log:              logger,
	}
	rt, err := cluster.NewRouter(rcfg)
	if err != nil {
		log.Error("invalid flags", "err", err)
		return 2
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Error("listen failed", "err", err)
		return 1
	}
	// The bound address, for scripts (and the smoke test) when -addr
	// uses :0.
	log.Info("listening", "addr", ln.Addr().String(), "instances", len(ins))

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *probeEach > 0 {
		go func() {
			ticker := time.NewTicker(*probeEach)
			defer ticker.Stop()
			rt.Probe(ctx)
			for {
				select {
				case <-ctx.Done():
					return
				case <-ticker.C:
					rt.Probe(ctx)
				}
			}
		}()
	}

	if *aeEach > 0 {
		go func() {
			ticker := time.NewTicker(*aeEach)
			defer ticker.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-ticker.C:
					rep := rt.AntiEntropy(ctx)
					if rep.Resubmitted > 0 || rep.Errors > 0 {
						log.Info("anti-entropy sweep", "resubmitted", rep.Resubmitted, "pruned", rep.Pruned, "errors", rep.Errors)
					}
				}
			}
		}()
	}

	httpSrv := &http.Server{Handler: rt.Handler(), ReadHeaderTimeout: 5 * time.Second}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	select {
	case <-ctx.Done():
	case err := <-serveErr:
		log.Error("serve failed", "err", err)
		return 1
	}
	stop()
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		log.Warn("shutdown failed", "err", err)
	}
	// Let any in-flight witness forwards land before reporting; copies
	// that were still queued when the socket closed are the anti-entropy
	// sweep's job next time the tier runs.
	rt.WitnessFlush()
	st := rt.Stats()
	log.Info("stopped", "submits", st.Submits, "failovers", st.Failovers, "hedges", st.Hedges, "partials", st.PartialsServed)
	return 0
}
