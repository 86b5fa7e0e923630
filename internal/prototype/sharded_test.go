package prototype

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"adapt/internal/lss"
	"adapt/internal/placement"
	"adapt/internal/sim"
	"adapt/internal/telemetry"
	"adapt/internal/workload"
)

// shardedTestConfig is a tiny geometry that keeps GC active: 8-block
// chunks, 4-chunk segments, 25% spare.
func shardedTestConfig(userBlocks int64) lss.Config {
	return lss.Config{
		BlockSize:     64,
		ChunkBlocks:   8,
		SegmentChunks: 4,
		UserBlocks:    userBlocks,
		OverProvision: 0.25,
	}
}

func sepGCFactory(t *testing.T) PolicyFactory {
	t.Helper()
	return func(shard int, cfg lss.Config) (lss.Policy, error) {
		return placement.New(placement.NameSepGC, placement.Params{
			UserBlocks:    cfg.UserBlocks,
			SegmentBlocks: cfg.SegmentBlocks(),
			ChunkBlocks:   cfg.ChunkBlocks,
		})
	}
}

func newTestSharded(t *testing.T, userBlocks int64, shards int, verify, mirror, fill bool) *Sharded {
	t.Helper()
	s, err := NewSharded(ShardedConfig{
		Engine: EngineConfig{
			Store:        shardedTestConfig(userBlocks),
			ServiceTime:  time.Microsecond,
			Fill:         fill,
			Verify:       verify,
			VerifyMirror: mirror,
		},
		Shards:        shards,
		PolicyFactory: sepGCFactory(t),
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// zipfOp is one step of the deterministic differential trace.
type zipfOp struct {
	lba    int64
	blocks int
	trim   bool
}

// zipfTrace builds a deterministic 100k-op zipfian trace of writes and
// trims over the full LBA space, boundary-crossing ranges included.
func zipfTrace(seed uint64, userBlocks int64, n int) []zipfOp {
	rng := sim.NewRNG(seed)
	z := workload.NewZipf(rng, userBlocks, 0.99, true)
	ops := make([]zipfOp, n)
	for i := range ops {
		lba := z.Next()
		blocks := 1 + int(rng.Intn(4))
		if rest := userBlocks - lba; int64(blocks) > rest {
			blocks = int(rest)
		}
		ops[i] = zipfOp{lba: lba, blocks: blocks, trim: rng.Intn(5) == 0}
	}
	return ops
}

// applyTrace replays a trace against any engine.
func applyTrace(t *testing.T, eng Ingest, ops []zipfOp) {
	t.Helper()
	for i, op := range ops {
		var err error
		if op.trim {
			err = eng.Trim(op.lba, op.blocks)
		} else {
			err = eng.Write(op.lba, op.blocks)
		}
		if err != nil {
			t.Fatalf("op %d (%+v): %v", i, op, err)
		}
	}
}

// liveness returns the per-LBA liveness bitmap of an engine. The
// physical location of a block differs between a one-shard and a
// multi-shard engine (independent logs, independent GC), but whether
// an LBA is live depends only on the write/trim history — the
// differential invariant the router must preserve.
func liveness(e *Sharded, userBlocks int64) []bool {
	out := make([]bool, userBlocks)
	for lba := int64(0); lba < userBlocks; lba++ {
		sh := e.ShardOf(lba)
		_, _, out[lba] = e.shards[sh].store.Location(lba - e.bases[sh])
	}
	return out
}

// TestShardedDifferentialZipfian replays one seeded 100k-op zipfian
// trace against a one-shard (flat) engine and a 4-shard engine and requires the
// identical per-LBA final state. The sharded run carries the checker
// oracle, so every shard is also cross-checked against the reference
// model during the replay and in full at Close.
func TestShardedDifferentialZipfian(t *testing.T) {
	const userBlocks = 8192
	ops := zipfTrace(0xad457, userBlocks, 100_000)

	flat := newTestSharded(t, userBlocks, 1, false, false, true)
	sharded := newTestSharded(t, userBlocks, 4, true, false, true)

	applyTrace(t, flat, ops)
	applyTrace(t, sharded, ops)
	if err := flat.Drain(); err != nil {
		t.Fatal(err)
	}
	if err := sharded.Drain(); err != nil {
		t.Fatal(err)
	}

	flatLive := liveness(flat, userBlocks)
	shardLive := liveness(sharded, userBlocks)
	diffs := 0
	for lba := range flatLive {
		if flatLive[lba] != shardLive[lba] {
			diffs++
			if diffs <= 5 {
				t.Errorf("lba %d: flat live=%v sharded live=%v", lba, flatLive[lba], shardLive[lba])
			}
		}
	}
	if diffs > 0 {
		t.Fatalf("%d of %d LBAs diverge between flat and sharded", diffs, userBlocks)
	}

	// The aggregate view must match the flat engine's user traffic
	// exactly: routing must neither drop nor duplicate blocks.
	fs, ss := flat.Stats(), sharded.Stats()
	if fs.UserBlocks != ss.UserBlocks || fs.TrimmedBlocks != ss.TrimmedBlocks {
		t.Fatalf("traffic diverges: flat user=%d trim=%d, sharded user=%d trim=%d",
			fs.UserBlocks, fs.TrimmedBlocks, ss.UserBlocks, ss.TrimmedBlocks)
	}

	if err := flat.Close(); err != nil {
		t.Fatal(err)
	}
	if err := sharded.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestShardedRecoveryPerShard crash-recovers each shard independently:
// checkpoint every shard store, recover each into a fresh store, and
// require per-shard invariants plus an identical live set.
func TestShardedRecoveryPerShard(t *testing.T) {
	const userBlocks = 4096
	s := newTestSharded(t, userBlocks, 4, false, false, true)
	defer s.Close()

	applyTrace(t, s, zipfTrace(0xfeed, userBlocks, 20_000))
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}

	for i, eng := range s.shards {
		var buf bytes.Buffer
		if err := eng.store.WriteCheckpoint(&buf); err != nil {
			t.Fatalf("shard %d checkpoint: %v", i, err)
		}
		pol, err := sepGCFactory(t)(i, eng.store.Config())
		if err != nil {
			t.Fatal(err)
		}
		rec, err := lss.Recover(&buf, eng.store.Config(), pol)
		if err != nil {
			t.Fatalf("shard %d recover: %v", i, err)
		}
		if err := rec.CheckInvariants(); err != nil {
			t.Fatalf("shard %d recovered invariants: %v", i, err)
		}
		// Every block live before the crash must be live after recovery.
		// The converse is weaker: the checkpoint carries no trim journal,
		// so a trimmed block whose last durable copy still sits in a
		// sealed segment rolls forward again (documented crash semantics
		// of the segment-summary format).
		for lba := int64(0); lba < s.sizes[i]; lba++ {
			_, _, wantLive := eng.store.Location(lba)
			_, _, gotLive := rec.Location(lba)
			if wantLive && !gotLive {
				t.Fatalf("shard %d lba %d: lost after recovery", i, lba)
			}
		}
	}
}

// TestShardedConcurrentFault hammers a mirrored 4-shard engine from
// eight goroutines while a column fails and rebuilds mid-traffic —
// the -race exercise for the router, the GC gate, and the fault
// fan-out across shards.
func TestShardedConcurrentFault(t *testing.T) {
	const userBlocks = 4096
	s := newTestSharded(t, userBlocks, 4, true, true, true)

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := sim.NewRNG(uint64(g)*7919 + 3)
			z := workload.NewZipf(rng, userBlocks, 0.99, true)
			for i := 0; i < 3000; i++ {
				lba := z.Next()
				switch rng.Intn(10) {
				case 0:
					if err := s.Trim(lba, 1); err != nil {
						t.Errorf("goroutine %d trim: %v", g, err)
						return
					}
				case 1:
					if err := s.Read(lba, 1); err != nil {
						t.Errorf("goroutine %d read: %v", g, err)
						return
					}
				default:
					n := 1 + int(rng.Intn(3))
					if rest := userBlocks - lba; int64(n) > rest {
						n = int(rest)
					}
					if err := s.Write(lba, n); err != nil {
						t.Errorf("goroutine %d write: %v", g, err)
						return
					}
				}
			}
		}(g)
	}

	// Fail a column mid-traffic, then rebuild online. Every shard must
	// degrade and every shard must come back.
	time.Sleep(2 * time.Millisecond)
	if err := s.FailColumn(1); err != nil {
		t.Fatalf("fail column: %v", err)
	}
	if !s.Degraded() {
		t.Fatal("not degraded after FailColumn")
	}
	for _, e := range s.shards {
		if !e.Degraded() {
			t.Fatal("a shard stayed healthy through a shared-column failure")
		}
	}
	for {
		_, done, err := s.RebuildStep(64)
		if err != nil {
			t.Fatalf("rebuild: %v", err)
		}
		if done {
			break
		}
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if s.Degraded() {
		t.Fatal("still degraded after full rebuild")
	}

	st := s.Stats()
	if st.UserBlocks == 0 {
		t.Fatal("no traffic accounted")
	}
	if err := s.Close(); err != nil {
		t.Fatalf("close (per-shard oracle full check): %v", err)
	}
}

// faultCounter reads one of the device array's fault counters off the
// telemetry set.
func faultCounter(t *testing.T, ts *telemetry.Set, name string) int64 {
	t.Helper()
	for _, in := range ts.Registry.Scalars() {
		if in.Name() == name {
			if f, ok := in.(*telemetry.FuncGauge); ok {
				f.Refresh()
			}
			return in.Load()
		}
	}
	t.Fatalf("%s not registered", name)
	return 0
}

// TestShardedFaultWithoutMirror drives the serving-path fault model on
// its own, with no checker mirror behind it: a failed column drops the
// chunk writes routed to it and turns reads aimed at it into degraded
// fan-out reads, the rebuild streams it back and lifts degraded mode,
// and FailColumn validates its argument.
func TestShardedFaultWithoutMirror(t *testing.T) {
	const userBlocks = 4096
	ts := telemetry.New(telemetry.Options{})
	s, err := NewSharded(ShardedConfig{
		Engine: EngineConfig{
			Store:       shardedTestConfig(userBlocks),
			ServiceTime: time.Microsecond,
			Fill:        true,
			Telemetry:   ts,
		},
		Shards:        2,
		PolicyFactory: sepGCFactory(t),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ncols := s.Config().DataColumns + 1

	for _, col := range []int{-1, ncols} {
		if err := s.FailColumn(col); err == nil {
			t.Fatalf("FailColumn(%d) accepted on a %d-column array", col, ncols)
		}
	}
	if err := s.FailColumn(1); err != nil {
		t.Fatal(err)
	}
	if !s.Degraded() {
		t.Fatal("not degraded after FailColumn")
	}
	if err := s.FailColumn(2); err == nil {
		t.Fatal("second column failed while column 1 is down")
	}

	for lba := int64(0); lba < userBlocks; lba += 4 {
		if err := s.Read(lba, 1); err != nil {
			t.Fatal(err)
		}
		if err := s.Write(lba, 4); err != nil {
			t.Fatal(err)
		}
	}
	if n := faultCounter(t, ts, telemetry.MetricDegradedReads); n == 0 {
		t.Fatal("no read aimed at the failed column fanned out")
	}
	if n := faultCounter(t, ts, telemetry.MetricLostChunks); n == 0 {
		t.Fatal("no chunk write routed to the failed column was dropped")
	}

	for {
		_, done, err := s.RebuildStep(16)
		if err != nil {
			t.Fatal(err)
		}
		if done {
			break
		}
	}
	if s.Degraded() {
		t.Fatal("rebuild completion should clear degraded mode")
	}
	if n := faultCounter(t, ts, telemetry.MetricRebuildChunks); n == 0 {
		t.Fatal("rebuild streamed no chunks")
	}
	// The array is whole again: the last column (parity included) can
	// fail next.
	if err := s.FailColumn(ncols - 1); err != nil {
		t.Fatalf("FailColumn(%d) after a full rebuild: %v", ncols-1, err)
	}
}

// TestShardedRouting pins the partition arithmetic: contiguous slices,
// remainder to the last shard, boundary-crossing ops split correctly.
func TestShardedRouting(t *testing.T) {
	const userBlocks = 4100 // not divisible by 4: last shard gets +4
	s := newTestSharded(t, userBlocks, 4, false, false, false)
	defer s.Close()

	if got := s.Shards(); got != 4 {
		t.Fatalf("Shards() = %d", got)
	}
	if s.shardBlocks != userBlocks/4 {
		t.Fatalf("shardBlocks = %d, want %d", s.shardBlocks, userBlocks/4)
	}
	if last := s.sizes[3]; last != userBlocks-3*(userBlocks/4) {
		t.Fatalf("last shard size = %d", last)
	}
	for _, tc := range []struct {
		lba  int64
		want int
	}{
		{0, 0}, {s.shardBlocks - 1, 0}, {s.shardBlocks, 1},
		{userBlocks - 1, 3}, {3 * s.shardBlocks, 3},
	} {
		if got := s.ShardOf(tc.lba); got != tc.want {
			t.Errorf("ShardOf(%d) = %d, want %d", tc.lba, got, tc.want)
		}
	}

	// A write crossing the shard 0/1 boundary must land in both shards.
	cross := s.shardBlocks - 2
	if err := s.Write(cross, 4); err != nil {
		t.Fatal(err)
	}
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	for off := int64(0); off < 4; off++ {
		lba := cross + off
		sh := s.ShardOf(lba)
		if _, _, live := s.shards[sh].store.Location(lba - s.bases[sh]); !live {
			t.Errorf("lba %d (shard %d) not live after boundary write", lba, sh)
		}
	}

	// The aggregate config spans the whole space.
	if got := s.Config().UserBlocks; got != userBlocks {
		t.Fatalf("Config().UserBlocks = %d, want %d", got, userBlocks)
	}
	if st := s.Stats(); st.UserBlocks != 4 {
		t.Fatalf("aggregate UserBlocks = %d, want 4", st.UserBlocks)
	}
}

// TestShardedStatsShape checks ShardStats arity and the WriteBatch
// bucketing across shards.
func TestShardedStatsShape(t *testing.T) {
	const userBlocks = 4096
	s := newTestSharded(t, userBlocks, 4, false, false, false)
	defer s.Close()

	// One batch touching every shard.
	var ops []BatchWrite
	for i := 0; i < 4; i++ {
		ops = append(ops, BatchWrite{LBA: s.bases[i], Blocks: 2})
	}
	if err := s.WriteBatch(ops); err != nil {
		t.Fatal(err)
	}
	sst := s.ShardStats()
	if len(sst) != 4 {
		t.Fatalf("ShardStats len = %d", len(sst))
	}
	for i, st := range sst {
		if st.UserBlocks != 2 {
			t.Fatalf("shard %d UserBlocks = %d, want 2 (batch mis-bucketed: %+v)", i, st.UserBlocks, sst)
		}
	}
	if _, err := s.WriteBatchTimed([]BatchWrite{{LBA: 0, Blocks: 1}}); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.UserBlocks != 9 {
		t.Fatalf("aggregate UserBlocks = %d, want 9", st.UserBlocks)
	}
}
