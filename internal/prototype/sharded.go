package prototype

import (
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"adapt/internal/lss"
	"adapt/internal/segfile"
	"adapt/internal/sim"
	"adapt/internal/telemetry"
)

// PolicyFactory builds the placement policy for one shard. cfg is the
// shard store's geometry (UserBlocks already cut down to the shard's
// slice); each shard must get its own policy instance because policies
// hold per-store state.
type PolicyFactory func(shard int, cfg lss.Config) (lss.Policy, error)

// ShardedConfig describes a sharded ingest engine.
type ShardedConfig struct {
	// Engine carries the store geometry, device model, and telemetry
	// shared by every shard. Engine.Store.UserBlocks is the aggregate
	// LBA space; Engine.Policy is ignored in favour of PolicyFactory.
	Engine EngineConfig
	// Shards is the shard count (default runtime.GOMAXPROCS(0)).
	Shards int
	// PolicyFactory builds each shard's placement policy. Required.
	PolicyFactory PolicyFactory
}

// Sharded is the ingest engine. It partitions the LBA space into
// contiguous per-core slices, each owned by an independent Engine
// shard (own lss.Store, own lock, own victim index, own GC watermarks)
// over one shared device array — the shards split the address space,
// not the hardware. One shard is the unsharded configuration; Run, the
// network server, and the harness all drive it through Ingest.
//
// Cross-shard coordination is deliberately minimal:
//
//   - GC desynchronization: a one-token gate serializes GC cycles
//     across shards so no two shards hammer the same physical columns
//     with relocation traffic simultaneously (the paper's GC interferes
//     with foreground I/O through exactly that path). Shards count the
//     time they wait in GCGateWaits/GCGateWaitNS.
//   - Telemetry windows: shard stores never drive the shared recorder
//     (a tick refreshes every store-reading gauge on the set), so the
//     router runs one ticker goroutine that takes all shard locks in
//     order and advances the recorder on the shared clock.
type Sharded struct {
	shards      []*Engine
	bases       []int64 // first global LBA of each shard
	sizes       []int64 // blocks owned by each shard
	shardBlocks int64   // blocks per shard (last shard absorbs remainder)
	cfg         lss.Config
	devs        *deviceArray
	ts          *telemetry.Set

	gate       chan struct{} // 1-token GC scheduler
	gateWaits  []atomic.Int64
	gateWaitNS []atomic.Int64

	tickStop chan struct{}
	tickDone chan struct{}

	closeOnce sync.Once
	closeErr  error
}

// NewSharded builds a sharded ingest engine. The caller must Close it.
func NewSharded(cfg ShardedConfig) (*Sharded, error) {
	n := cfg.Shards
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	if cfg.PolicyFactory == nil {
		return nil, fmt.Errorf("prototype: sharded engine requires a PolicyFactory")
	}
	ecfg := cfg.Engine.withDefaults()
	if ecfg.VerifyMirror && !ecfg.Verify {
		return nil, fmt.Errorf("prototype: VerifyMirror requires Verify")
	}
	// The partition must exist before any policy (and thus any store)
	// does, so default the group-independent geometry here; each shard
	// store re-runs the same defaulting on its slice.
	geo := ecfg.Store.GeometryDefaults()
	if int64(n) > geo.UserBlocks/int64(geo.ChunkBlocks) {
		return nil, fmt.Errorf("prototype: %d shards over %d blocks leaves sub-chunk shards", n, geo.UserBlocks)
	}

	s := &Sharded{
		shards:      make([]*Engine, 0, n),
		bases:       make([]int64, n),
		sizes:       make([]int64, n),
		shardBlocks: geo.UserBlocks / int64(n),
		cfg:         geo,
		gate:        make(chan struct{}, 1),
		gateWaits:   make([]atomic.Int64, n),
		gateWaitNS:  make([]atomic.Int64, n),
		tickStop:    make(chan struct{}),
		tickDone:    make(chan struct{}),
	}
	s.devs = newDeviceArray(geo.DataColumns+1, ecfg.QueueDepth, ecfg.ServiceTime, ecfg.ReadServiceTime)
	s.ts = ecfg.Telemetry
	if s.ts != nil {
		s.devs.registerTelemetry(s.ts)
	}

	fill := ecfg.Fill
	for i := 0; i < n; i++ {
		s.bases[i] = int64(i) * s.shardBlocks
		s.sizes[i] = s.shardBlocks
		if i == n-1 {
			s.sizes[i] = geo.UserBlocks - s.bases[i]
		}
		scfg := ecfg
		scfg.Fill = false // filled in parallel below
		scfg.Store = geo
		scfg.Store.UserBlocks = s.sizes[i]
		if ecfg.Durable != nil {
			if ecfg.Durable.Dir == "" {
				s.teardown()
				return nil, fmt.Errorf("prototype: sharded durable backend requires Options.Dir (one subdirectory per shard)")
			}
			dopts := *ecfg.Durable
			dopts.Dir = filepath.Join(ecfg.Durable.Dir, fmt.Sprintf("shard-%d", i))
			scfg.Durable = &dopts
		}
		pol, err := cfg.PolicyFactory(i, scfg.Store)
		if err != nil {
			s.teardown()
			return nil, fmt.Errorf("prototype: shard %d policy: %w", i, err)
		}
		scfg.Policy = pol
		eng, err := newShard(scfg, s.devs, i, s.gateFor(i))
		if err != nil {
			s.teardown()
			return nil, fmt.Errorf("prototype: shard %d: %w", i, err)
		}
		s.shards = append(s.shards, eng)
	}

	if fill {
		errs := make([]error, n)
		var wg sync.WaitGroup
		for i, eng := range s.shards {
			if eng.Recovered() {
				// The shard rolled forward from its durable directory;
				// refilling would overwrite the recovered state.
				continue
			}
			wg.Add(1)
			go func(i int, eng *Engine) {
				defer wg.Done()
				for lba := int64(0); lba < s.sizes[i]; lba++ {
					if err := eng.Write(lba, 1); err != nil {
						errs[i] = err
						return
					}
				}
			}(i, eng)
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				s.teardown()
				return nil, fmt.Errorf("prototype: shard %d fill: %w", i, err)
			}
		}
	}

	if s.ts != nil && s.ts.Recorder != nil {
		go s.runTicker()
	} else {
		close(s.tickDone)
	}
	return s, nil
}

// gateFor builds the cross-shard GC admission gate for one shard,
// wired through the store's construction Deps: a synchronous GC cycle
// must hold the single token for its duration, so at most one shard
// relocates segments at a time and the device columns never see two
// shards' GC traffic stacked. Under background GC the store ignores
// the gate — the pacer itself serializes slices across shards.
func (s *Sharded) gateFor(i int) func() (release func()) {
	return func() (release func()) {
		select {
		case s.gate <- struct{}{}:
		default:
			t0 := time.Now()
			s.gate <- struct{}{}
			s.gateWaits[i].Add(1)
			s.gateWaitNS[i].Add(time.Since(t0).Nanoseconds())
		}
		return func() { <-s.gate }
	}
}

// runTicker advances the shared recorder on the wall-derived clock.
// A tick refreshes every function gauge on the set, and those gauges
// read raw store fields, so the ticker holds every shard lock (taken
// in shard order; it is the only multi-lock holder, so order alone
// rules out deadlock).
func (s *Sharded) runTicker() {
	defer close(s.tickDone)
	iv := time.Duration(s.ts.Recorder.Interval())
	if iv <= 0 {
		iv = 10 * time.Millisecond
	}
	t := time.NewTicker(iv)
	defer t.Stop()
	for {
		select {
		case <-s.tickStop:
			return
		case <-t.C:
			s.lockAll()
			s.ts.Recorder.TickTo(s.devs.now())
			s.unlockAll()
		}
	}
}

func (s *Sharded) lockAll() {
	for _, e := range s.shards {
		e.mu.Lock()
	}
}

func (s *Sharded) unlockAll() {
	for _, e := range s.shards {
		e.mu.Unlock()
	}
}

// teardown closes whatever construction managed to start.
func (s *Sharded) teardown() {
	for _, e := range s.shards {
		e.abort()
	}
	s.devs.close()
}

// Config returns the aggregate geometry: the defaulted store config
// with UserBlocks spanning the whole sharded LBA space.
func (s *Sharded) Config() lss.Config { return s.cfg }

// Now returns the shared wall-derived simulated time.
func (s *Sharded) Now() sim.Time { return s.devs.now() }

// Shards returns the shard count.
func (s *Sharded) Shards() int { return len(s.shards) }

// GCShards returns each shard engine as an independent GC-stepping
// target; the pacer serializes slices across them, which is the
// background-mode replacement for the one-token gate.
func (s *Sharded) GCShards() []GCShard {
	out := make([]GCShard, len(s.shards))
	for i, e := range s.shards {
		out[i] = e
	}
	return out
}

// QueueFill reports the fill fraction of the most backlogged column of
// the shared device array.
func (s *Sharded) QueueFill() float64 { return s.devs.queueFill() }

// ShardOf maps a global LBA to its owning shard.
func (s *Sharded) ShardOf(lba int64) int {
	if lba < 0 {
		return 0
	}
	i := int(lba / s.shardBlocks)
	if i >= len(s.shards) {
		i = len(s.shards) - 1
	}
	return i
}

// eachShard splits the global range [lba, lba+blocks) into per-shard
// local ranges and invokes fn for each, in ascending shard order.
func (s *Sharded) eachShard(lba int64, blocks int, fn func(sh int, local int64, n int) error) error {
	for blocks > 0 {
		sh := s.ShardOf(lba)
		end := s.bases[sh] + s.sizes[sh]
		n := blocks
		if rest := end - lba; int64(n) > rest {
			n = int(rest)
		}
		if n <= 0 { // out of range: let the owning store reject it
			n = blocks
		}
		if err := fn(sh, lba-s.bases[sh], n); err != nil {
			return err
		}
		lba += int64(n)
		blocks -= n
	}
	return nil
}

// Write appends blocks starting at the global lba, splitting across
// shard boundaries as needed.
func (s *Sharded) Write(lba int64, blocks int) error {
	return s.eachShard(lba, blocks, func(sh int, local int64, n int) error {
		return s.shards[sh].Write(local, n)
	})
}

// Read accounts a user read.
func (s *Sharded) Read(lba int64, blocks int) error {
	return s.eachShard(lba, blocks, func(sh int, local int64, n int) error {
		return s.shards[sh].Read(local, n)
	})
}

// Trim discards blocks.
func (s *Sharded) Trim(lba int64, blocks int) error {
	return s.eachShard(lba, blocks, func(sh int, local int64, n int) error {
		return s.shards[sh].Trim(local, n)
	})
}

// mergeTiming folds one sub-op's timing into the whole-op view: first
// Enter/Locked, last Done, backpressure summed.
func mergeTiming(dst *OpTiming, t OpTiming, first bool) {
	if first {
		dst.Enter = t.Enter
		dst.Locked = t.Locked
	}
	dst.Done = t.Done
	dst.SinkNS += t.SinkNS
}

// WriteTimed is Write plus a timing breakdown spanning every touched
// shard.
func (s *Sharded) WriteTimed(lba int64, blocks int) (OpTiming, error) {
	var out OpTiming
	first := true
	err := s.eachShard(lba, blocks, func(sh int, local int64, n int) error {
		t, err := s.shards[sh].WriteTimed(local, n)
		mergeTiming(&out, t, first)
		first = false
		return err
	})
	return out, err
}

// ReadTimed is Read plus a timing breakdown.
func (s *Sharded) ReadTimed(lba int64, blocks int) (OpTiming, error) {
	var out OpTiming
	first := true
	err := s.eachShard(lba, blocks, func(sh int, local int64, n int) error {
		t, err := s.shards[sh].ReadTimed(local, n)
		mergeTiming(&out, t, first)
		first = false
		return err
	})
	return out, err
}

// TrimTimed is Trim plus a timing breakdown.
func (s *Sharded) TrimTimed(lba int64, blocks int) (OpTiming, error) {
	var out OpTiming
	first := true
	err := s.eachShard(lba, blocks, func(sh int, local int64, n int) error {
		t, err := s.shards[sh].TrimTimed(local, n)
		mergeTiming(&out, t, first)
		first = false
		return err
	})
	return out, err
}

// bucketBatch splits a global-LBA batch into per-shard local batches.
// The common case — a committer that already batches per shard — hits
// the single-bucket fast path and allocates one translated slice.
func (s *Sharded) bucketBatch(ops []BatchWrite) map[int][]BatchWrite {
	buckets := make(map[int][]BatchWrite, 1)
	for _, op := range ops {
		s.eachShard(op.LBA, op.Blocks, func(sh int, local int64, n int) error {
			buckets[sh] = append(buckets[sh], BatchWrite{LBA: local, Blocks: n})
			return nil
		})
	}
	return buckets
}

// WriteBatch applies a group commit. Ops owned by one shard land
// back-to-back under that shard's single lock acquisition; a mixed
// batch is split per shard (each sub-batch keeps the group-commit
// chunk-fill property within its shard).
func (s *Sharded) WriteBatch(ops []BatchWrite) error {
	for sh, sub := range s.bucketBatch(ops) {
		if err := s.shards[sh].WriteBatch(sub); err != nil {
			return err
		}
	}
	return nil
}

// WriteBatchTimed is WriteBatch plus a merged timing breakdown.
func (s *Sharded) WriteBatchTimed(ops []BatchWrite) (OpTiming, error) {
	var out OpTiming
	first := true
	for sh, sub := range s.bucketBatch(ops) {
		t, err := s.shards[sh].WriteBatchTimed(sub)
		mergeTiming(&out, t, first)
		first = false
		if err != nil {
			return out, err
		}
	}
	return out, nil
}

// FailColumn fails one physical array column with the default
// FaultConfig retry and watermark settings. The column is shared
// hardware, so the failure degrades every shard.
func (s *Sharded) FailColumn(col int) error {
	return s.failColumn(col, FaultConfig{}, s.Stats().UserBlocks)
}

// failColumn arms the array failure under fc and switches every shard
// into degraded-mode GC (failing the checker mirrors alongside, when
// kept). It holds every shard lock, so no chunk is in flight through a
// sink while the failure is armed. op is the failing operation, for the
// trace.
func (s *Sharded) failColumn(col int, fc FaultConfig, op int64) error {
	s.lockAll()
	defer s.unlockAll()
	for _, e := range s.shards {
		if e.closed {
			return ErrEngineClosed
		}
	}
	if err := s.devs.fail(col, fc, op); err != nil {
		return err
	}
	for _, e := range s.shards {
		if err := e.failLocked(col); err != nil {
			return err
		}
	}
	return nil
}

// RebuildStep streams up to maxChunks chunks of the failed column back
// through the device queues (and advances each shard's checker mirror
// by as much, when kept). Degraded-mode GC lifts once the rebuild
// passes the watermark; done reports that the array and every mirror
// are whole again, after which the array leaves the fault path.
func (s *Sharded) RebuildStep(maxChunks int) (rebuilt int, done bool, err error) {
	if maxChunks < 1 {
		return 0, false, fmt.Errorf("prototype: rebuild step of %d chunks", maxChunks)
	}
	rebuilt, lift, arrayDone := s.devs.rebuildStep(maxChunks)
	done = true
	for _, e := range s.shards {
		if !e.mirror && !lift && !arrayDone {
			// Nothing to do on the shard: leave its lock to the traffic.
			done = false
			continue
		}
		d, err := e.rebuildStep(maxChunks, lift, arrayDone)
		if err != nil {
			return rebuilt, false, err
		}
		done = done && d
	}
	if done {
		s.devs.endRebuild()
	}
	return rebuilt, done, nil
}

// Degraded reports whether any shard runs degraded-mode GC.
func (s *Sharded) Degraded() bool {
	for _, e := range s.shards {
		if e.Degraded() {
			return true
		}
	}
	return false
}

// ShardStats returns one snapshot per shard, GC gate waits included.
func (s *Sharded) ShardStats() []EngineStats {
	out := make([]EngineStats, len(s.shards))
	for i, e := range s.shards {
		st := e.Stats()
		st.GCGateWaits = s.gateWaits[i].Load()
		st.GCGateWaitNS = s.gateWaitNS[i].Load()
		out[i] = st
	}
	return out
}

// Stats aggregates the shard snapshots; the ratio fields are recomputed
// from the summed traffic so they match what one flat store would
// report for the same block counts.
func (s *Sharded) Stats() EngineStats {
	var agg EngineStats
	for _, st := range s.ShardStats() {
		agg.UserBlocks += st.UserBlocks
		agg.GCBlocks += st.GCBlocks
		agg.ShadowBlocks += st.ShadowBlocks
		agg.PaddingBlocks += st.PaddingBlocks
		agg.ReadBlocks += st.ReadBlocks
		agg.TrimmedBlocks += st.TrimmedBlocks
		agg.PaddedChunks += st.PaddedChunks
		agg.ChunkFlushes += st.ChunkFlushes
		agg.ParityChunks += st.ParityChunks
		agg.GCCycles += st.GCCycles
		agg.FreeSegments += st.FreeSegments
		agg.GCGateWaits += st.GCGateWaits
		agg.GCGateWaitNS += st.GCGateWaitNS
		agg.GCSlices += st.GCSlices
		agg.GCEmergencyRuns += st.GCEmergencyRuns
	}
	agg.WA = 1
	agg.EffectiveWA = 1
	total := agg.UserBlocks + agg.GCBlocks + agg.ShadowBlocks + agg.PaddingBlocks
	if agg.UserBlocks > 0 {
		agg.WA = float64(agg.UserBlocks+agg.GCBlocks) / float64(agg.UserBlocks)
		agg.EffectiveWA = float64(total) / float64(agg.UserBlocks)
	}
	if total > 0 {
		agg.PaddingRatio = float64(agg.PaddingBlocks) / float64(total)
	}
	return agg
}

// DurableStats sums the shard backends' counters (tail quantiles take
// the worst shard); ok is false when no shard has a durable backend.
func (s *Sharded) DurableStats() (segfile.Stats, bool) {
	var agg segfile.Stats
	ok := false
	for _, e := range s.shards {
		st, has := e.DurableStats()
		if !has {
			continue
		}
		ok = true
		agg.SyncedSegments += st.SyncedSegments
		agg.Fsyncs += st.Fsyncs
		agg.Checkpoints += st.Checkpoints
		agg.BytesWritten += st.BytesWritten
		agg.RecoveredSegments += st.RecoveredSegments
		agg.RecoveredBlocks += st.RecoveredBlocks
		agg.TornRecords += st.TornRecords
		agg.CorruptFiles += st.CorruptFiles
		if st.FsyncP50NS > agg.FsyncP50NS {
			agg.FsyncP50NS = st.FsyncP50NS
		}
		if st.FsyncP99NS > agg.FsyncP99NS {
			agg.FsyncP99NS = st.FsyncP99NS
		}
		if st.FsyncP999NS > agg.FsyncP999NS {
			agg.FsyncP999NS = st.FsyncP999NS
		}
	}
	return agg, ok
}

// Recovered reports whether any shard rolled forward from its durable
// directory.
func (s *Sharded) Recovered() bool {
	for _, e := range s.shards {
		if e.Recovered() {
			return true
		}
	}
	return false
}

// Shard returns the i'th shard engine — the differential and recovery
// tests inspect shard stores directly.
func (s *Sharded) Shard(i int) *Engine { return s.shards[i] }

// ShardBase returns the first global LBA owned by shard i.
func (s *Sharded) ShardBase(i int) int64 { return s.bases[i] }

// Drain pads and flushes every shard's open chunks (and runs the full
// oracle cross-check per shard when verification is on).
func (s *Sharded) Drain() error {
	for i, e := range s.shards {
		if err := e.Drain(); err != nil {
			return fmt.Errorf("prototype: shard %d drain: %w", i, err)
		}
	}
	return nil
}

// Close stops the recorder ticker, closes every shard (draining and
// invariant-checking each store), finalizes the shared recorder, and
// stops the device workers.
func (s *Sharded) Close() error {
	s.closeOnce.Do(func() {
		close(s.tickStop)
		<-s.tickDone
		for i, e := range s.shards {
			if err := e.Close(); err != nil && s.closeErr == nil {
				s.closeErr = fmt.Errorf("prototype: shard %d close: %w", i, err)
			}
		}
		if s.ts != nil && s.ts.Recorder != nil {
			// Every shard is closed (no mutators left), so finishing the
			// recorder — which refreshes all store-reading gauges — is safe
			// without the shard locks.
			s.ts.Recorder.Finish(s.devs.now())
		}
		s.devs.close()
	})
	return s.closeErr
}

var _ Ingest = (*Sharded)(nil)
