package prototype

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"adapt/internal/checker"
	"adapt/internal/lss"
	"adapt/internal/segfile"
	"adapt/internal/sim"
	"adapt/internal/telemetry"
)

// Ingest is the request-facing engine API: everything the network
// server and the harness need to drive traffic, implemented by the
// Sharded engine (one store and one lock per shard, N >= 1, over one
// device array). All methods are safe for concurrent use.
type Ingest interface {
	// Config returns the aggregate store geometry (UserBlocks covers
	// the whole LBA space even when sharded).
	Config() lss.Config
	// Now returns the engine's wall-derived simulated time.
	Now() sim.Time

	Write(lba int64, blocks int) error
	WriteTimed(lba int64, blocks int) (OpTiming, error)
	WriteBatch(ops []BatchWrite) error
	WriteBatchTimed(ops []BatchWrite) (OpTiming, error)
	Read(lba int64, blocks int) error
	ReadTimed(lba int64, blocks int) (OpTiming, error)
	Trim(lba int64, blocks int) error
	TrimTimed(lba int64, blocks int) (OpTiming, error)

	// FailColumn fails one array column with the default FaultConfig
	// retry and watermark settings; RebuildStep streams it back through
	// the device queues. Degraded reports whether degraded-mode GC is
	// on, which the rebuild lifts at the watermark.
	FailColumn(col int) error
	RebuildStep(maxChunks int) (rebuilt int, done bool, err error)
	Degraded() bool

	Stats() EngineStats
	// ShardStats returns per-shard snapshots, for per-shard
	// attribution in the serving layer.
	ShardStats() []EngineStats
	// Shards returns the shard count.
	Shards() int
	// ShardOf maps a global LBA to the shard that owns it.
	ShardOf(lba int64) int

	// GCShards returns the background-GC stepping surface of every
	// shard, for an external pacer when the stores run with
	// Config.BackgroundGC.
	GCShards() []GCShard
	// QueueFill reports the fill fraction of the most backlogged device
	// queue (0 empty, 1 full) — the pacer's backpressure signal. Safe
	// without any engine lock.
	QueueFill() float64

	// DurableStats returns the durable-backend counters (summed across
	// shards, tail quantiles taken as the worst shard) and whether a
	// durable backend is attached at all.
	DurableStats() (segfile.Stats, bool)

	Drain() error
	Close() error
}

// GCShard is one shard's background-GC stepping surface: the pacer
// polls need and urgency, then buys bounded slices of relocation work.
// Every method takes the shard's own lock, so a slice excludes user
// operations on that shard only for its duration.
type GCShard interface {
	// GCNeeded reports pending GC work: an in-flight (paused) cycle or
	// a free pool at or below the low watermark.
	GCNeeded() bool
	// GCUrgency is the distance-to-watermark signal: 0 at the high
	// watermark, 1 at the low watermark, above 1 approaching the
	// emergency floor.
	GCUrgency() float64
	// GCStep runs up to budget relocation units and reports whether no
	// cycle remains in flight.
	GCStep(budget int) bool
}

// Engine is one shard of a Sharded engine: it wraps one
// log-structured store behind a mutex and sinks its chunk flushes into
// the engine's shared device array in RAID-5 order. Simulated time is
// wall-derived (time since array start), so the store's SLA-window
// padding runs against real request interarrival gaps.
//
// All methods are safe for concurrent use. Chunk flushes dispatch to
// bounded per-device queues under the shard lock, so a saturated
// device applies backpressure to every producer on the shard.
type Engine struct {
	mu     sync.Mutex
	store  *lss.Store
	oracle *checker.Oracle
	mirror bool // the oracle keeps the byte-accurate RAID mirror
	rng    *sim.RNG

	devs  *deviceArray
	shard int32

	stripeFill   int
	parityRow    int64
	parityChunks int64

	// durable is the file-backed segment backend, nil for a pure
	// in-memory engine; recovered marks that construction rolled the
	// store forward from it instead of starting empty.
	durable   *segfile.Store
	recovered bool

	// Request-tracing state (all guarded by mu). timing arms per-op
	// accounting of time blocked on device queues; sinkNS accumulates
	// it for the op in flight. itv receives degraded-mode interference
	// intervals; degradedTok is the open interval, 0 when healthy.
	timing      bool
	sinkNS      int64
	itv         *telemetry.IntervalLog
	degradedTok int64
	failGen     int64

	closed bool
}

// EngineConfig describes an ingest engine.
type EngineConfig struct {
	// Store is the store geometry (chunk size, capacity, SLA window).
	Store lss.Config
	// Policy is the placement policy instance to drive.
	Policy lss.Policy
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
	// active, as the paper's prototype does after loading.
	Fill bool
	// Telemetry, when set, attaches live instrumentation (per-shard
	// store and policy metrics and events, per-device counters, and the
	// array's fault counters). The Set must be dedicated to this engine:
	// instrument names would collide otherwise.
	Telemetry *telemetry.Set
	// Verify attaches the correctness oracle from internal/checker: all
	// traffic is cross-checked against the flat reference model at the
	// oracle's default cadence, and Close runs the full O(capacity)
	// cross-check.
	Verify bool
	// VerifyMirror additionally maintains the byte-accurate RAID mirror
	// (requires Verify and BlockSize >= 17): FailColumn and RebuildStep
	// fail and rebuild it alongside the modelled array, and full checks
	// then verify XOR parity plus read-back of every durable block.
	// Memory grows with chunks written — meant for tests, not
	// long-running servers.
	VerifyMirror bool
	// Durable, when set, persists the store through a file-backed
	// segment log (internal/segfile): every flushed chunk, seal, and
	// reclaim is written through before acknowledgement per the
	// configured sync discipline, and construction recovers any state
	// the directory already holds (skipping Fill for a recovered
	// store). The engine completes the options itself — Geometry,
	// Telemetry, and shard labels are overwritten from the engine
	// configuration. Verify cannot adopt a recovered store: combining
	// it with a non-empty directory is a construction error.
	Durable *segfile.Options
}

// ErrEngineClosed is returned by operations on a closed engine.
var ErrEngineClosed = errors.New("prototype: engine closed")

// BatchWrite is one write of a batched group commit.
type BatchWrite struct {
	LBA    int64
	Blocks int
}

// withDefaults fills the device-model defaults.
func (cfg EngineConfig) withDefaults() EngineConfig {
	if cfg.QueueDepth < 1 {
		cfg.QueueDepth = 8
	}
	if cfg.ServiceTime <= 0 {
		cfg.ServiceTime = 50 * time.Microsecond
	}
	if cfg.ReadServiceTime <= 0 {
		cfg.ReadServiceTime = cfg.ServiceTime / 2
	}
	return cfg
}

// newShard builds shard i of a Sharded engine over its device array.
// gate is the cross-shard GC admission gate wired into the store's
// Deps.
func newShard(cfg EngineConfig, da *deviceArray, shard int, gate func() (release func())) (*Engine, error) {
	geo := cfg.Store.GeometryDefaults()
	e := &Engine{
		rng:    sim.NewRNG(0xe116 + uint64(shard+1)*0x9e37),
		devs:   da,
		shard:  int32(shard),
		mirror: cfg.VerifyMirror,
	}
	// The sink runs under the shard lock (the store is only entered
	// with it held). Each shard rotates its own stripe cursor over the
	// shared columns.
	ncols := len(da.devices)
	deps := lss.Deps{
		GCGate:  gate,
		Sharded: true,
		Shard:   shard,
		Sink: func(lss.ChunkWrite) {
			parityCol := int(e.parityRow % int64(ncols))
			col := e.stripeFill
			if col >= parityCol {
				col++
			}
			e.sinkNS += e.devs.write(col, e.timing)
			e.stripeFill++
			if e.stripeFill == ncols-1 {
				e.sinkNS += e.devs.write(parityCol, e.timing)
				e.parityChunks++
				e.stripeFill = 0
				e.parityRow++
			}
		},
	}
	if ts := cfg.Telemetry; ts != nil {
		deps.Telemetry = ts
		// The store's own clock freezes at the op timestamp for the
		// duration of a synchronous GC cycle; interference intervals
		// need real elapsed time, so give it the wall-derived clock.
		deps.Clock = da.now
		e.itv = ts.Intervals
		if p, ok := cfg.Policy.(interface {
			SetShardTelemetry(ts *telemetry.Set, shard int)
		}); ok {
			p.SetShardTelemetry(ts, shard)
		}
	}
	if cfg.Durable != nil {
		dopts := *cfg.Durable
		dopts.Geometry = geo
		dopts.Telemetry = cfg.Telemetry
		dopts.Sharded, dopts.Shard = true, shard
		sf, err := segfile.Open(dopts)
		if err != nil {
			e.abort()
			return nil, fmt.Errorf("prototype: durable backend: %w", err)
		}
		e.durable = sf
		deps.Durable = sf
		if sf.HasData() {
			if cfg.Verify {
				e.abort()
				return nil, fmt.Errorf("prototype: Verify cannot adopt a recovered store; start from an empty data directory")
			}
			store, _, err := sf.Recover(cfg.Store, cfg.Policy, deps)
			if err != nil {
				e.abort()
				return nil, fmt.Errorf("prototype: durable recovery: %w", err)
			}
			e.store = store
			e.recovered = true
		}
	}
	if e.store == nil {
		e.store = lss.New(cfg.Store, cfg.Policy, deps)
	}
	if cfg.Verify {
		o, err := checker.New(e.store, checker.Options{Mirror: cfg.VerifyMirror})
		if err != nil {
			e.abort()
			return nil, err
		}
		e.oracle = o
	}
	return e, nil
}

// Recovered reports whether construction rolled the store forward from
// a durable backend instead of starting empty.
func (e *Engine) Recovered() bool { return e.recovered }

// DurableStats returns the durable-backend counters; ok is false for a
// pure in-memory engine.
func (e *Engine) DurableStats() (segfile.Stats, bool) {
	if e.durable == nil {
		return segfile.Stats{}, false
	}
	return e.durable.Stats(), true
}

// abort stops the shard without draining the store — used when
// construction fails.
func (e *Engine) abort() {
	e.mu.Lock()
	e.closed = true
	e.mu.Unlock()
	if e.durable != nil {
		_ = e.durable.Close()
	}
}

// Config returns the store's effective (defaulted) configuration.
func (e *Engine) Config() lss.Config { return e.store.Config() }

// Now returns the engine's wall-derived simulated time.
func (e *Engine) Now() sim.Time { return e.devs.now() }

// GCNeeded implements GCShard.
func (e *Engine) GCNeeded() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return !e.closed && e.store.GCNeeded()
}

// GCUrgency implements GCShard.
func (e *Engine) GCUrgency() float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.store.GCUrgency()
}

// GCStep implements GCShard.
func (e *Engine) GCStep(budget int) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return true
	}
	return e.store.GCStep(budget)
}

// OpTiming is the per-op timing breakdown the Timed engine variants
// return for request tracing. All stamps are on the engine clock.
type OpTiming struct {
	// Enter is the clock at method entry, before taking the engine
	// lock; Locked is the clock once the lock was acquired, so
	// Locked-Enter is the lock wait.
	Enter, Locked sim.Time
	// Done is the clock at completion (store apply plus any device
	// dispatch finished).
	Done sim.Time
	// SinkNS is how long the op was blocked dispatching onto full
	// device queues — device backpressure, a subset of Done-Locked.
	SinkNS int64
}

// timeBegin arms sink accounting for one op. Caller holds e.mu.
func (e *Engine) timeBegin() {
	e.timing = true
	e.sinkNS = 0
}

// timeEnd disarms sink accounting and fills the trailing stamps.
// Caller holds e.mu.
func (e *Engine) timeEnd(t *OpTiming) {
	t.SinkNS = e.sinkNS
	e.timing = false
	t.Done = e.Now()
}

// Write appends blocks user-written blocks starting at lba.
func (e *Engine) Write(lba int64, blocks int) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return ErrEngineClosed
	}
	return e.writeLocked(lba, blocks)
}

// WriteBatch applies a group commit: every write lands back-to-back
// under one lock acquisition and one timestamp, so a chunk-aligned
// batch fills whole chunks before the SLA window can force padding.
func (e *Engine) WriteBatch(ops []BatchWrite) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return ErrEngineClosed
	}
	for _, op := range ops {
		if err := e.writeLocked(op.LBA, op.Blocks); err != nil {
			return err
		}
	}
	return nil
}

// WriteTimed is Write plus an OpTiming breakdown (lock wait, commit,
// device backpressure) for request tracing.
func (e *Engine) WriteTimed(lba int64, blocks int) (OpTiming, error) {
	t := OpTiming{Enter: e.Now()}
	e.mu.Lock()
	defer e.mu.Unlock()
	t.Locked = e.Now()
	if e.closed {
		t.Done = t.Locked
		return t, ErrEngineClosed
	}
	e.timeBegin()
	err := e.writeLocked(lba, blocks)
	e.timeEnd(&t)
	return t, err
}

// WriteBatchTimed is WriteBatch plus an OpTiming breakdown covering
// the whole group commit.
func (e *Engine) WriteBatchTimed(ops []BatchWrite) (OpTiming, error) {
	t := OpTiming{Enter: e.Now()}
	e.mu.Lock()
	defer e.mu.Unlock()
	t.Locked = e.Now()
	if e.closed {
		t.Done = t.Locked
		return t, ErrEngineClosed
	}
	e.timeBegin()
	var err error
	for _, op := range ops {
		if err = e.writeLocked(op.LBA, op.Blocks); err != nil {
			break
		}
	}
	e.timeEnd(&t)
	return t, err
}

func (e *Engine) writeLocked(lba int64, blocks int) error {
	now := e.Now()
	if e.oracle != nil {
		return e.oracle.Write(lba, blocks, now)
	}
	return e.store.Write(lba, blocks, now)
}

// Read accounts a user read and consumes modelled device read time on
// one column (the store never materializes data bytes; callers keep
// payloads in their own data plane).
func (e *Engine) Read(lba int64, blocks int) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return ErrEngineClosed
	}
	now := e.Now()
	if e.oracle != nil {
		e.oracle.Read(lba, blocks, now)
	} else {
		e.store.Read(lba, blocks, now)
	}
	e.readColumn()
	return nil
}

// ReadTimed is Read plus an OpTiming breakdown.
func (e *Engine) ReadTimed(lba int64, blocks int) (OpTiming, error) {
	t := OpTiming{Enter: e.Now()}
	e.mu.Lock()
	defer e.mu.Unlock()
	t.Locked = e.Now()
	if e.closed {
		t.Done = t.Locked
		return t, ErrEngineClosed
	}
	e.timeBegin()
	now := e.Now()
	if e.oracle != nil {
		e.oracle.Read(lba, blocks, now)
	} else {
		e.store.Read(lba, blocks, now)
	}
	e.readColumn()
	e.timeEnd(&t)
	return t, nil
}

// TrimTimed is Trim plus an OpTiming breakdown.
func (e *Engine) TrimTimed(lba int64, blocks int) (OpTiming, error) {
	t := OpTiming{Enter: e.Now()}
	e.mu.Lock()
	defer e.mu.Unlock()
	t.Locked = e.Now()
	if e.closed {
		t.Done = t.Locked
		return t, ErrEngineClosed
	}
	e.timeBegin()
	now := e.Now()
	var err error
	if e.oracle != nil {
		err = e.oracle.Trim(lba, blocks, now)
	} else {
		err = e.store.Trim(lba, blocks, now)
	}
	e.timeEnd(&t)
	return t, err
}

// Trim discards blocks (TRIM/UNMAP).
func (e *Engine) Trim(lba int64, blocks int) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return ErrEngineClosed
	}
	now := e.Now()
	if e.oracle != nil {
		return e.oracle.Trim(lba, blocks, now)
	}
	return e.store.Trim(lba, blocks, now)
}

// readColumn consumes modelled read time on a random column. Caller
// holds e.mu.
func (e *Engine) readColumn() {
	e.sinkNS += e.devs.read(e.rng.Intn(len(e.devs.devices)), e.timing)
}

// failLocked puts the shard into degraded-mode GC after its array
// column col failed, fails the checker mirror alongside (when kept),
// and opens the degraded interference interval. Caller holds e.mu.
func (e *Engine) failLocked(col int) error {
	if e.mirror {
		if err := e.oracle.FailColumn(col); err != nil {
			return err
		}
	}
	e.store.Reconfigure(func(r *lss.Runtime) { r.Degraded = true })
	e.failGen++
	e.itv.Close(e.degradedTok, e.Now()) // a prior failure's window, if any
	e.degradedTok = e.itv.Open(telemetry.IntervalDegraded, e.failGen, int32(col), e.shard, e.Now())
	return nil
}

// rebuildStep advances the shard's side of an array rebuild: the
// checker mirror's incremental rebuild by at most maxChunks (when
// kept), and degraded-mode GC lifted when the array passes its
// watermark (lift). arrayDone is the array's own completion; done
// reports that the shard finished too, which closes its degraded
// interval.
func (e *Engine) rebuildStep(maxChunks int, lift, arrayDone bool) (done bool, err error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return false, ErrEngineClosed
	}
	done = arrayDone
	if e.mirror {
		_, mirrorDone, err := e.oracle.RebuildStep(maxChunks)
		if err != nil {
			return false, err
		}
		done = done && mirrorDone
	}
	if lift || done {
		e.store.Reconfigure(func(r *lss.Runtime) { r.Degraded = false })
	}
	if done && e.degradedTok != 0 {
		e.itv.Close(e.degradedTok, e.Now())
		e.degradedTok = 0
	}
	return done, nil
}

// Degraded reports whether the store is running degraded-mode GC.
func (e *Engine) Degraded() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.store.Degraded()
}

// EngineStats is a point-in-time snapshot of the engine's traffic
// accounting.
type EngineStats struct {
	UserBlocks, GCBlocks, ShadowBlocks, PaddingBlocks int64
	ReadBlocks, TrimmedBlocks                         int64
	// PaddedChunks counts chunk flushes that carried any zero padding —
	// the counter the batching ON/OFF comparison watches.
	PaddedChunks int64
	ChunkFlushes int64
	ParityChunks int64
	GCCycles     int64
	FreeSegments int
	WA           float64
	EffectiveWA  float64
	PaddingRatio float64
	// GCGateWaits/GCGateWaitNS count GC cycles that had to wait for the
	// cross-shard scheduler token, and the total time they waited.
	// Always zero on a one-shard engine.
	GCGateWaits  int64
	GCGateWaitNS int64
	// GCSlices counts externally paced GC executions; GCEmergencyRuns
	// counts background-mode allocations that hit the emergency floor
	// and collected synchronously. Both zero without BackgroundGC.
	GCSlices        int64
	GCEmergencyRuns int64
}

// Stats returns a snapshot of the engine's accounting.
func (e *Engine) Stats() EngineStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.statsLocked()
}

func (e *Engine) statsLocked() EngineStats {
	m := e.store.Metrics()
	st := EngineStats{
		UserBlocks:      m.UserBlocks,
		GCBlocks:        m.GCBlocks,
		ShadowBlocks:    m.ShadowBlocks,
		PaddingBlocks:   m.PaddingBlocks,
		ReadBlocks:      m.ReadBlocks,
		TrimmedBlocks:   m.TrimmedBlocks,
		ParityChunks:    e.parityChunks,
		GCCycles:        m.GCCycles,
		GCSlices:        m.GCSlices,
		GCEmergencyRuns: m.GCEmergencyRuns,
		FreeSegments:    e.store.FreeSegments(),
		WA:              m.WA(),
		EffectiveWA:     m.EffectiveWA(),
		PaddingRatio:    m.PaddingRatio(),
	}
	for i := range m.PerGroup {
		st.PaddedChunks += m.PerGroup[i].PaddingEvents
		st.ChunkFlushes += m.PerGroup[i].ChunkFlushes
	}
	return st
}

// Drain pads and flushes every open chunk. With Verify it also runs the
// oracle's full O(capacity) cross-check (and, with VerifyMirror, RAID
// parity plus byte read-back).
func (e *Engine) Drain() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return ErrEngineClosed
	}
	return e.drainLocked()
}

func (e *Engine) drainLocked() error {
	now := e.Now()
	if e.oracle != nil {
		return e.oracle.Drain(now)
	}
	e.store.Drain(now)
	return nil
}

// Close drains the store and (with Verify) runs the final full
// cross-check. The shard rejects all traffic afterwards; the owning
// Sharded engine stops the device workers.
func (e *Engine) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	err := e.drainLocked()
	e.closed = true
	e.mu.Unlock()
	if e.durable != nil {
		// Drain above already checkpointed through the DurableLog hook;
		// this syncs any remaining dirty tail and releases the handles.
		if derr := e.durable.Close(); err == nil && derr != nil {
			err = fmt.Errorf("prototype: durable close: %w", derr)
		}
	}
	if ierr := e.store.CheckInvariants(); err == nil && ierr != nil {
		err = fmt.Errorf("prototype: engine close invariants: %w", ierr)
	}
	return err
}
