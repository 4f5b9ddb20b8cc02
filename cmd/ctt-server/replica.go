package main

// Replica mode (-replica-of): bootstrap the primary's snapshot into
// -data-dir, apply its live WAL stream through the normal batch path,
// and serve the read surface (/api/query, /api/suggest, /api/stream,
// dashboards' data endpoints are omitted — a replica is a query
// endpoint, not a pilot). Writes are refused with 503 naming the
// primary; POST /api/promote (admin-keyed) flips the node into a
// writable primary under a fenced epoch.
//
// A replica runs no pilot, no telnet listener, no self-scrape and no
// rollup engine: every stored point must come from the stream, byte
// for byte, so /api/query answers match the primary's. Downsampled
// queries are served by exact raw folds (the rollup planner is not
// loaded); after promotion, restart the node without -replica-of to
// re-enable continuous aggregation and the full write surface.

import (
	"fmt"
	"log/slog"
	"time"

	"repro/internal/api"
	"repro/internal/repl"
	"repro/internal/tsdb"
)

func runReplica(logger *slog.Logger) {
	logger = logger.With("role", "replica")
	logger.Info("bootstrapping replica", "primary", *replicaOf, "dir", *dataDir)

	boot, err := repl.Bootstrap(repl.BootstrapConfig{
		Dir:     *dataDir,
		Primary: *replicaOf,
		Key:     *apiKey,
		Logger:  logger,
	})
	if err != nil {
		fatal(logger, "replica bootstrap", err)
	}

	// The replica's own background maintenance (flush, compaction) runs
	// on wall time: there is no pilot clock here, and the stream carries
	// historical timestamps that must age out by real-world policy.
	db, err := tsdb.OpenOptions(tsdb.Options{
		Dir:             *dataDir,
		FlushAge:        *flushAge,
		FlushInterval:   *flushInterval,
		CompactInterval: *compactInterval,
		Now:             time.Now,
	})
	if err != nil {
		fatal(logger, "replica store open", err)
	}
	defer db.Close()
	if boot.Snapshot {
		// The shipped files already hold everything the position covers;
		// commit it durably so a restart resumes instead of re-seeding.
		if err := db.CommitReplPos(boot.Pos); err != nil {
			fatal(logger, "replica position commit", err)
		}
	}

	gw := api.New(db, nil, api.Config{
		QueueSize:   *queueSize,
		Workers:     *workers,
		RateLimit:   *rateLimit,
		APIKey:      *apiKey,
		SlowQuery:   *slowQuery,
		TraceSample: *traceSample,
		TraceRetain: *traceRetain,
		Logger:      logger,
	})
	defer gw.Close()

	fol := repl.NewFollower(repl.FollowerConfig{
		DB:      db,
		Primary: *replicaOf,
		Key:     *apiKey,
		Logger:  logger,
	})
	gw.SetReplica(*replicaOf, func() (uint64, error) {
		epoch, err := fol.Promote()
		if err != nil {
			return 0, err
		}
		logger.Info("promoted: restart without -replica-of to re-enable rollups and the full write surface", "epoch", epoch)
		return epoch, nil
	})
	fol.Start(boot)
	defer fol.Close()

	reg := gw.Registry()
	reg.Gauge("ctt_repl_lag_seconds", func() float64 { return fol.Stats().LagSeconds })
	reg.Gauge("ctt_repl_connected", func() float64 {
		if fol.Stats().Connected {
			return 1
		}
		return 0
	})
	reg.Gauge("ctt_repl_epoch", func() float64 { return float64(fol.Stats().Epoch) })
	reg.Gauge("ctt_repl_bytes_total", func() float64 { return float64(fol.Stats().BytesIn) })
	gw.AddHealthSource(func(m map[string]any) {
		ro, _ := gw.ReadOnly()
		if !ro {
			return // promoted: replication detail no longer applies
		}
		st := fol.Stats()
		m["repl_connected"] = st.Connected
		m["repl_lag_seconds"] = st.LagSeconds
		m["repl_epoch"] = st.Epoch
		if st.ResyncRequired {
			m["status"] = "resync_required"
			m["reason"] = "primary demands snapshot re-sync; restart this replica to re-bootstrap"
			return
		}
		if *replLagMax > 0 && st.LagSeconds >= 0 &&
			st.LagSeconds > replLagMax.Seconds() {
			m["status"] = "repl_lagging"
			m["reason"] = fmt.Sprintf("replication lag %.1fs exceeds -repl-lag-max %s", st.LagSeconds, *replLagMax)
		}
	})

	// Periodic WAL fsync, as on the primary (the durable replication
	// position rides in the same writes it covers).
	loops := newLoops()
	loops.syncWAL(db, logger)
	fmt.Printf("\nreplica of %s — http://%s/api/query · /api/stream · /metrics · /healthz · POST /api/promote\n", *replicaOf, *addr)
	// The follower's link and any SSE subscribers are torn down
	// concurrently with the HTTP drain.
	serve(logger, gw.Handler(), loops, func() {
		fol.Close()
		gw.Close()
	})
}
