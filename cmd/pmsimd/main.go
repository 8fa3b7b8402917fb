// Command pmsimd is the profile collection daemon: a long-running
// HTTP/JSON service that accepts per-shard ProfileMe database
// submissions from fleet workers (pmsim -fleet ... -submit URL) and
// serves loss-corrected hot-PC and estimator queries while the campaign
// is still running.
//
// Robustness is the headline, not a feature flag:
//
//   - Ingest goes through a bounded queue that answers 429 when full
//     (backpressure). The refused shard's captured samples are recorded
//     as aggregate loss, so overload degrades the estimates' precision —
//     never their centring.
//   - Persistence sits behind a circuit breaker: a dying disk suspends
//     checkpoints (and flips /readyz) instead of stalling ingest.
//   - Queries carry per-request deadlines and a concurrency high-water
//     mark; excess load is shed with 503 + Retry-After.
//   - SIGINT/SIGTERM starts a graceful drain: readiness flips, new
//     submissions get 503 (accounted), in-flight requests finish, the
//     queue is flushed, and a final atomic checkpoint is written. The
//     books stay with their owner, tier member or not: a restart reloads
//     them. Leaving a tier for good is the router's job (see next item).
//   - With -wal-dir, the 202 is a durability contract: the submission is
//     group-committed to a write-ahead log BEFORE it is acknowledged,
//     and a restart after kill -9 replays checkpoint+WAL so nothing
//     acknowledged is lost and post-crash retries dedupe to
//     202+duplicate.
//   - The instance is a migration endpoint for the router's elastic
//     membership: /v1/handoff/export seals and snapshots its books,
//     /v1/handoff (accept) merges a peer's envelope exactly once, and
//     /v1/ledger/adopt installs dedupe obligations for shard ids whose ring
//     ownership moved here — all idempotent, all WAL-durable, so a
//     membership change interrupted at any point is safe to retry. The
//     instance knows its id and never the ring. Once the router's removal
//     is confirmed (/v1/handoff/confirm) the instance has retired: WAL
//     and checkpoint are set aside as *.handedoff and SIGTERM writes
//     nothing back.
//
// What an instance is offered is captured from outside, by putting the
// pmtraffic record relay in front of it: pmsimd has no capture hook and
// links neither the simulator nor the traffic tooling.
//
// Example:
//
//	pmsimd -addr :7070 -checkpoint /var/lib/pmsim/agg.db -interval 512
//	pmsim -bench compress -fleet 4 -shards 16 -submit http://localhost:7070
//	curl localhost:7070/v1/hotpcs?n=10
package main

import (
	"context"
	"flag"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"profileme/internal/ingest"
	"profileme/internal/server"
)

func main() { os.Exit(run()) }

func run() int {
	var (
		addr      = flag.String("addr", "127.0.0.1:7070", "listen address")
		queue     = flag.Int("queue", 64, "ingest queue depth (bounded admission)")
		ckpt      = flag.String("checkpoint", "", "aggregate checkpoint file (atomic writes; reloaded on restart)")
		ckptEvery = flag.Int("checkpoint-every", 8, "checkpoint after this many merged submissions; with -wal-dir, also not before the WAL has grown by the last checkpoint's size")
		interval  = flag.Float64("interval", 512, "aggregate mean sampling interval (must match submitting shards)")
		window    = flag.Int("window", 0, "aggregate paired-sampling window W")
		width     = flag.Int("width", 4, "aggregate sustained issue width C")

		maxBody   = flag.Int64("max-body", 8<<20, "submission body size limit in bytes")
		drainWait = flag.Duration("drain-timeout", 30*time.Second, "graceful drain budget after SIGTERM")

		walDir     = flag.String("wal-dir", "", "write-ahead log directory: every 202 is durable before it is sent, and restart replays checkpoint+WAL ('' = no WAL)")
		walSegSize = flag.Int64("wal-segment-bytes", 0, "WAL segment rotation size (0 = 8 MiB default)")
		walStall   = flag.Duration("wal-stall", 0, "pending-fsync age after which /readyz reports wal-stalled (0 = 10s default)")

		sketchTopK = flag.Int("sketch-topk", 512, "hot-PC sketch capacity K: /v1/hotpcs serves n<=K lock-free from the published view")

		instance = flag.String("instance", "", "tier instance id: names this collector in logs, /v1/stats and handoff envelopes")
	)
	flag.Parse()

	// One JSON logger for the process, every record tagged with this
	// instance: under a tier soak several instances share one stderr.
	// Each component adds its own component attribute.
	logger := slog.New(slog.NewJSONHandler(os.Stderr, nil)).With("instance", *instance)
	log := logger.With("component", "pmsimd")

	icfg := ingest.Config{
		QueueDepth:      *queue,
		Interval:        *interval,
		Window:          *window,
		Width:           *width,
		CheckpointPath:  *ckpt,
		CheckpointEvery: *ckptEvery,
		WALDir:          *walDir,
		WALSegmentBytes: *walSegSize,
		WALStallAfter:   *walStall,
		SketchTopK:      *sketchTopK,
		Log:             logger,
	}

	// Recover owns the whole restart story, with or without -wal-dir: it
	// loads the checkpoint (a PMCK envelope carrying the aggregate and the
	// admission ledger, or a bare database), quarantines a damaged one,
	// refuses to start over a version-skewed one — an older binary must
	// not quietly discard a newer one's file — replays the WAL tail past
	// the barrier, truncates a torn tail, and rebuilds both the aggregate
	// and the admission ledger so post-crash retries dedupe.
	svc, rinfo, err := ingest.Recover(icfg)
	if err != nil {
		log.Error("recover failed", "err", err)
		return 1
	}
	st := svc.Stats()
	attrs := []any{
		"checkpoint_loaded", rinfo.CheckpointLoaded,
		"checkpoint_quarantined", rinfo.CheckpointQuarantined,
		"wal_records", rinfo.Replay.Records,
		"replayed", rinfo.Replayed,
		"segments", rinfo.Replay.Segments,
		"replay_ms", rinfo.Replay.Duration.Milliseconds(),
		"truncated", rinfo.Replay.Truncated,
		"samples", st.Samples,
		"lost", st.Lost,
	}
	if rinfo.Replay.Truncated {
		attrs = append(attrs, "truncated_at", rinfo.Replay.TruncatedAt.String(), "segments_quarantined", rinfo.Replay.Quarantined)
	}
	log.Info("recovered", attrs...)
	svc.Start()

	scfg := server.Config{
		Instance:     *instance,
		MaxBodyBytes: *maxBody,
		Log:          logger,
	}
	srv := server.New(scfg, svc)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Error("listen failed", "err", err)
		return 1
	}
	// Signals are caught before the address is logged: a script that
	// reads it and SIGTERMs at once must get a drain, not the default
	// action.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	// The bound address, for scripts (and the smoke test) when -addr
	// uses :0.
	log.Info("listening", "addr", ln.Addr().String())

	httpSrv := &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 5 * time.Second}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	select {
	case <-ctx.Done():
	case err := <-serveErr:
		log.Error("serve failed", "err", err)
		return 1
	}
	stop()

	// Graceful drain: refuse new work first (readiness flips, late
	// submissions are 503'd WITH loss accounting), let in-flight requests
	// finish, flush the queue, write the final atomic checkpoint. A
	// retired instance writes none: its books live at the receiver.
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainWait)
	defer cancel()
	svc.BeginDrain()
	if err := httpSrv.Shutdown(drainCtx); err != nil {
		log.Warn("shutdown failed", "err", err)
	}
	if err := svc.Drain(drainCtx); err != nil {
		log.Error("drain failed", "err", err)
		return 1
	}
	// A clean WAL close flushes any pending group commit; the log stays
	// on disk — the next start replays anything past the final barrier.
	if err := svc.CloseWAL(); err != nil {
		log.Warn("wal close failed", "err", err)
	}
	st = svc.Stats()
	attrs = []any{
		"merged", st.Merged,
		"rejected", st.OverloadRejected,
		"samples", st.Samples,
		"lost", st.Lost,
		"loss_rate", st.LossRate,
		"retired", st.HandedOff,
	}
	if !st.HandedOff && *ckpt != "" {
		attrs = append(attrs, "checkpoint", *ckpt)
	}
	log.Info("drained", attrs...)
	return 0
}
