// ctt-server is the production-shaped deployment of the CTT cloud, a
// primary or a replica as internal/server assembles them (endpoints and
// start-up order are documented there). It parses the flags, runs the
// service until an interrupt and exits 2 on a bad flag, 1 on a failed
// start or close.
//
// Usage:
//
//	go run ./cmd/ctt-server [-city trondheim|vejle] [-days 3] [-addr 127.0.0.1:4242] [-tick 1s]
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"strings"

	"repro/internal/server"
)

// bindFlags binds every flag onto its Config field, defaulting to the
// field's value.
func bindFlags(cfg *server.Config) {
	flag.StringVar(&cfg.City, "city", cfg.City, "pilot deployment: trondheim or vejle")
	flag.IntVar(&cfg.Days, "days", cfg.Days, "simulated days of history to fast-forward before serving")
	flag.StringVar(&cfg.Addr, "addr", cfg.Addr, "listen address for gateway + dashboard")
	flag.Int64Var(&cfg.Seed, "seed", cfg.Seed, "simulation seed")
	flag.DurationVar(&cfg.Tick, "tick", cfg.Tick, "wall-clock time per simulated reporting interval (0 = freeze)")
	flag.DurationVar(&cfg.WALSyncInterval, "wal-sync-interval", cfg.WALSyncInterval,
		"fsync the WAL this often (0 = only on shutdown); group commits buffer between syncs")
	flag.StringVar(&cfg.DataDir, "data-dir", cfg.DataDir,
		`persist the store in this directory: writes go to a WAL, cold data is
flushed to immutable block files under <dir>/blocks, and the WAL
truncates to the unflushed tail; at start the rollup engine rebuilds
its open windows from what the store holds (see docs/OPERATIONS.md)`)
	flag.DurationVar(&cfg.FlushAge, "flush-age", cfg.FlushAge,
		"points older than this (by simulated time) are flushed to block files")
	flag.DurationVar(&cfg.FlushInterval, "flush-interval", cfg.FlushInterval,
		"background flush cadence (negative = disabled)")
	flag.DurationVar(&cfg.CompactInterval, "compact-interval", cfg.CompactInterval,
		"background block-compaction cadence (negative = disabled)")
	flag.DurationVar(&cfg.FlushLagMax, "flush-lag-max", cfg.FlushLagMax,
		"flip /healthz to 503 when the last successful flush is older than this wall time (0 = never)")
	flag.IntVar(&cfg.Queue, "queue", cfg.Queue, "ingest queue capacity (points)")
	flag.IntVar(&cfg.Workers, "workers", cfg.Workers, "ingest worker goroutines")
	flag.Float64Var(&cfg.RateLimit, "rate-limit", cfg.RateLimit, "per-client ingest limit in points/sec (0 = off)")
	flag.StringVar(&cfg.APIKey, "api-key", cfg.APIKey,
		`require this key on every data request: X-API-Key header over HTTP, "auth <key>" line over telnet ("" = open)`)
	flag.StringVar(&cfg.Telnet, "telnet", cfg.Telnet,
		`line-protocol (telnet "put") listener address ("" = disabled)`)
	flag.StringVar(&cfg.Rollup, "rollup", cfg.Rollup,
		`rollup tiers as resolution:retention pairs (retention 0 = keep forever); "off" disables the engine`)
	flag.DurationVar(&cfg.RawRetention, "raw-retention", cfg.RawRetention,
		"age out raw points older than this (0 = keep forever; rollup tiers keep serving older history)")
	flag.DurationVar(&cfg.RollupGrace, "rollup-grace", cfg.RollupGrace,
		"out-of-order allowance before a rollup window seals")
	flag.StringVar(&cfg.LogLevel, "log-level", cfg.LogLevel, "log level: debug, info, warn or error")
	flag.BoolVar(&cfg.LogJSON, "log-json", cfg.LogJSON, "emit logs as JSON instead of key=value text")
	flag.DurationVar(&cfg.SlowQuery, "slow-query", cfg.SlowQuery,
		"log queries slower than this with their full per-stage span tree (0 = off)")
	flag.IntVar(&cfg.TraceSample, "trace-sample", cfg.TraceSample,
		"collect per-point detail timing (block decode, head scan) on every Nth query (0 = off)")
	flag.IntVar(&cfg.TraceRetain, "trace-retain", cfg.TraceRetain,
		"retain the last N slow/sampled request traces for /api/traces (0 = default 256, negative = off)")
	flag.StringVar(&cfg.PprofAddr, "pprof-addr", cfg.PprofAddr,
		`serve net/http/pprof on this separate ops address ("" = disabled)`)
	flag.DurationVar(&cfg.ShutdownTimeout, "shutdown-timeout", cfg.ShutdownTimeout,
		"deadline for graceful HTTP shutdown on exit before remaining connections are force-closed")
	flag.StringVar(&cfg.ReplicaOf, "replica-of", cfg.ReplicaOf,
		`run as a read-only replica of the primary at this -repl-listen
address: bootstrap its snapshot into -data-dir, apply its live WAL
stream, serve reads, refuse writes with 503 (requires -data-dir; see
docs/OPERATIONS.md "Running a replica")`)
	flag.StringVar(&cfg.ReplListen, "repl-listen", cfg.ReplListen,
		`serve WAL-streaming replication to followers on this address
("" = disabled); followers authenticate with -api-key when one is set`)
	flag.DurationVar(&cfg.ReplLagMax, "repl-lag-max", cfg.ReplLagMax,
		"on a replica, flip /healthz to 503 when replication lag exceeds this (0 = never)")
	flag.DurationVar(&cfg.SelfScrape, "self-scrape", cfg.SelfScrape,
		"write the server's own /metrics gauges into the store this often (0 = off)")
	flag.StringVar(&cfg.SelfPrefix, "self-prefix", cfg.SelfPrefix,
		"metric namespace for self-scraped series (charted on /ops, queryable via /api/query)")
}

// newLogger builds the process logger from -log-level / -log-json.
func newLogger(cfg server.Config) (*slog.Logger, error) {
	var lvl slog.Level
	if err := lvl.UnmarshalText([]byte(cfg.LogLevel)); err != nil {
		return nil, fmt.Errorf("bad -log-level %q: %v", cfg.LogLevel, err)
	}
	opts := &slog.HandlerOptions{Level: lvl}
	if cfg.LogJSON {
		return slog.New(slog.NewJSONHandler(os.Stderr, opts)), nil
	}
	return slog.New(slog.NewTextHandler(os.Stderr, opts)), nil
}

// rejectRemovedFlags names the replacement of a flag that no longer
// exists, in one line, instead of the flag package's generic
// "not defined" error and usage dump. It runs before flag.Parse.
func rejectRemovedFlags(args []string) error {
	for _, a := range args {
		if a == "--" {
			break
		}
		if name, _, _ := strings.Cut(a, "="); name == "-wal" || name == "--wal" {
			return fmt.Errorf("-wal was removed: use -data-dir DIR (WAL plus block files)")
		}
	}
	return nil
}

func main() {
	if err := rejectRemovedFlags(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	cfg := server.DefaultConfig()
	bindFlags(&cfg)
	flag.Parse()
	// A plain "-replica-of host" disables the write listener instead
	// of failing on -telnet's default.
	telnetSet := false
	flag.Visit(func(f *flag.Flag) { telnetSet = telnetSet || f.Name == "telnet" })
	if cfg.ReplicaOf != "" && !telnetSet {
		cfg.Telnet = ""
	}
	logger, err := newLogger(cfg)
	if err == nil {
		err = cfg.Validate()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	slog.SetDefault(logger)

	// The first interrupt ends Run once start-up is done (the
	// fast-forward cannot be cut short); a second one kills.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	go func() { <-ctx.Done(); stop() }()
	srv := server.New(cfg, logger)
	err = srv.Listen()
	if err == nil {
		err = srv.Run(ctx)
	}
	if cerr := srv.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		logger.Error("ctt-server", "err", err)
		os.Exit(1)
	}
}
