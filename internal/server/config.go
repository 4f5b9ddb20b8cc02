package server

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/rollup"
)

// Config holds one field per ctt-server flag, named after it; the
// flag's help text (docs/OPERATIONS.md "Flag reference") documents the
// field. ctt-server binds each flag straight onto its field.
type Config struct {
	City string // pilot / simulation: -city, -days, -seed, -tick
	Days int
	Seed int64
	Tick time.Duration

	// Serving: -addr, -telnet, -api-key, -queue, -workers, -rate-limit,
	// -shutdown-timeout.
	Addr, Telnet, APIKey string
	Queue, Workers       int
	RateLimit            float64
	ShutdownTimeout      time.Duration

	// Persistence: -data-dir, -wal-sync-interval, -flush-age,
	// -flush-interval, -compact-interval, -flush-lag-max.
	DataDir                                                                string
	WALSyncInterval, FlushAge, FlushInterval, CompactInterval, FlushLagMax time.Duration

	Rollup                    string // -rollup, -raw-retention, -rollup-grace
	RawRetention, RollupGrace time.Duration

	// Observability: -log-level, -log-json, -slow-query, -trace-sample,
	// -trace-retain, -pprof-addr, -self-scrape, -self-prefix.
	LogLevel                 string
	LogJSON                  bool
	SlowQuery                time.Duration
	TraceSample, TraceRetain int
	PprofAddr                string
	SelfScrape               time.Duration
	SelfPrefix               string

	ReplicaOf, ReplListen string // -replica-of, -repl-listen, -repl-lag-max
	ReplLagMax            time.Duration
}

// DefaultConfig returns every flag's default.
func DefaultConfig() Config {
	return Config{
		City: "trondheim", Days: 3, Seed: 1, Tick: time.Second,
		Addr: "127.0.0.1:4242", Telnet: "127.0.0.1:4243",
		Queue: 4096, Workers: 4, ShutdownTimeout: 10 * time.Second,
		WALSyncInterval: time.Second, FlushAge: 30 * time.Minute,
		FlushInterval: time.Minute, CompactInterval: 10 * time.Minute,
		Rollup: "1m:168h,1h:2160h", RollupGrace: time.Minute,
		LogLevel: "info", SlowQuery: time.Second,
		SelfScrape: 15 * time.Second, SelfPrefix: "ctt.self",
	}
}

// cities maps -city to its pilot deployment.
var cities = map[string]func(seed int64) core.Config{
	"trondheim": core.TrondheimConfig,
	"vejle":     core.VejleConfig,
}

// Validate rejects a bad or conflicting configuration in one line
// before any state is touched. Telnet must be empty on a replica.
func (c Config) Validate() error {
	if cities[c.City] == nil {
		return fmt.Errorf("unknown -city %q: want trondheim or vejle", c.City)
	}
	if c.Rollup != "off" {
		if _, err := rollup.ParseTiers(c.Rollup); err != nil {
			return fmt.Errorf(`bad -rollup %q: %v (or "off")`, c.Rollup, err)
		}
	}
	if c.ReplicaOf != "" {
		if c.DataDir == "" {
			return fmt.Errorf("-replica-of requires -data-dir: the replica bootstraps the primary's snapshot there")
		}
		if c.Telnet != "" {
			return fmt.Errorf(`-replica-of runs read-only: drop -telnet or pass -telnet "" (writes belong on the primary at %s)`, c.ReplicaOf)
		}
		if c.ReplListen != "" {
			return fmt.Errorf("-replica-of cannot be combined with -repl-listen: chained replication is not supported, point every follower at the primary")
		}
	}
	if c.ReplListen != "" && c.DataDir == "" {
		return fmt.Errorf("-repl-listen requires persistence: set -data-dir so there is a WAL to stream")
	}
	return nil
}
