package adapt

import (
	"time"

	"adapt/internal/lss"
	"adapt/internal/prototype"
)

// Ingest is the request-facing engine API: everything a serving layer
// needs to drive traffic against a live store — writes, reads, trims
// (plain, timed, and batched), fault operations, stats, and the
// background-GC stepping surface. It is the public face of the
// prototype engines; NewEngine is the supported way to obtain one.
// All methods are safe for concurrent use.
type Ingest = prototype.Ingest

// GCShard is one shard's background-GC stepping surface (need,
// urgency, bounded slices); Ingest.GCShards exposes one per shard for
// an external pacer when the store runs with GCSched.Background.
type GCShard = prototype.GCShard

// OpTiming is the per-operation timing breakdown returned by the
// Timed variants of the Ingest operations.
type OpTiming = prototype.OpTiming

// BatchWrite is one write of a batched group commit.
type BatchWrite = prototype.BatchWrite

// EngineStats is a point-in-time snapshot of an engine's traffic,
// GC, latency, and queueing counters.
type EngineStats = prototype.EngineStats

// EngineConfig describes an ingest engine. The store
// geometry, placement policy, and GC scheduling mode all come from the
// embedded SimulatorConfig, so an engine shares the simulator's
// validation and defaulting (bad names and bad GC floors surface as
// errors here, never panics deeper in the stack).
type EngineConfig struct {
	// Simulator is the store geometry, placement policy, and GC
	// scheduling mode (GCSched).
	Simulator SimulatorConfig
	// ServiceTime is the modelled device time per chunk write (default
	// 50 µs ≈ 64 KiB chunks at 1.3 GB/s per SSD).
	ServiceTime time.Duration
	// ReadServiceTime is the device time per chunk read (default half
	// the write service time).
	ReadServiceTime time.Duration
	// QueueDepth bounds each device's queue (default 8).
	QueueDepth int
	// Fill writes every block sequentially before the engine is
	// returned, so subsequent traffic runs at full utilization with GC
	// active.
	Fill bool
	// Verify attaches the correctness oracle: all traffic is
	// cross-checked against a flat reference model, and Close runs a
	// full O(capacity) check.
	Verify bool
}

// NewEngine builds and starts an ingest engine (one shard over the
// modelled device array) through the validated public configuration
// path. The caller must Close it to drain open chunks and stop the
// device workers. Constructing internal prototype engines directly is
// deprecated for anything outside this module's own tooling: it
// bypasses configuration validation and the typed GCSchedConfig
// mapping.
func NewEngine(c EngineConfig) (Ingest, error) {
	cfg, pol, err := c.Simulator.build()
	if err != nil {
		return nil, err
	}
	return prototype.NewSharded(prototype.ShardedConfig{
		Engine: prototype.EngineConfig{
			Store:           cfg,
			ServiceTime:     c.ServiceTime,
			ReadServiceTime: c.ReadServiceTime,
			QueueDepth:      c.QueueDepth,
			Fill:            c.Fill,
			Verify:          c.Verify,
		},
		Shards:        1,
		PolicyFactory: func(int, lss.Config) (lss.Policy, error) { return pol, nil },
	})
}
