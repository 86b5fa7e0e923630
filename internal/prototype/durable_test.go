package prototype

import (
	"strings"
	"testing"
	"time"

	"adapt/internal/lss"
	"adapt/internal/placement"
	"adapt/internal/segfile"
)

func durableCfg() lss.Config {
	return lss.Config{
		BlockSize:     64,
		ChunkBlocks:   8,
		SegmentChunks: 4,
		UserBlocks:    4096,
		OverProvision: 0.25,
	}
}

func durablePolicy(t *testing.T, cfg lss.Config) lss.Policy {
	t.Helper()
	pol, err := placement.New(placement.NameSepGC, placement.Params{
		UserBlocks:    cfg.UserBlocks,
		SegmentBlocks: cfg.SegmentBlocks(),
		ChunkBlocks:   cfg.ChunkBlocks,
	})
	if err != nil {
		t.Fatal(err)
	}
	return pol
}

func durableEngine(t *testing.T, dir string) *Sharded {
	t.Helper()
	cfg := durableCfg()
	e, err := NewSharded(ShardedConfig{
		Engine: EngineConfig{
			Store:       cfg,
			ServiceTime: time.Microsecond,
			Durable:     &segfile.Options{Dir: dir, Sync: segfile.SyncAlways},
		},
		Shards:        1,
		PolicyFactory: func(int, lss.Config) (lss.Policy, error) { return durablePolicy(t, cfg), nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestEngineDurableRoundTrip writes through a durable engine, closes
// it, and reopens the same directory: the second boot must adopt the
// recovered store instead of a fresh fill, and report what it rolled
// forward.
func TestEngineDurableRoundTrip(t *testing.T) {
	dir := t.TempDir()
	e := durableEngine(t, dir)
	if e.Recovered() {
		t.Fatal("fresh directory reported as recovered")
	}
	for i := int64(0); i < 600; i++ {
		if err := e.Write(i%512, 1); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	ds, ok := e.DurableStats()
	if !ok {
		t.Fatal("durable engine reports no DurableStats")
	}
	if ds.Fsyncs == 0 || ds.BytesWritten == 0 {
		t.Fatalf("no durable traffic recorded: %+v", ds)
	}
	if err := e.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	e2 := durableEngine(t, dir)
	defer e2.Close()
	if !e2.Recovered() {
		t.Fatal("second boot did not recover the on-disk log")
	}
	ds2, _ := e2.DurableStats()
	if ds2.RecoveredSegments == 0 || ds2.RecoveredBlocks == 0 {
		t.Fatalf("recovery rolled nothing forward: %+v", ds2)
	}
	// The recovered store keeps serving: appends land on the same log.
	for i := int64(0); i < 64; i++ {
		if err := e2.Write(i, 1); err != nil {
			t.Fatalf("post-recovery write %d: %v", i, err)
		}
	}
}

// TestEngineDurableVerifyRejectsRecovered pins the documented
// restriction: Verify's shadow mirror starts empty, so adopting a
// recovered (non-empty) store under it must fail loudly.
func TestEngineDurableVerifyRejectsRecovered(t *testing.T) {
	dir := t.TempDir()
	e := durableEngine(t, dir)
	for i := int64(0); i < 600; i++ {
		if err := e.Write(i%512, 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	cfg := durableCfg()
	_, err := NewSharded(ShardedConfig{
		Engine: EngineConfig{
			Store:       cfg,
			ServiceTime: time.Microsecond,
			Verify:      true,
			Durable:     &segfile.Options{Dir: dir, Sync: segfile.SyncAlways},
		},
		Shards:        1,
		PolicyFactory: func(int, lss.Config) (lss.Policy, error) { return durablePolicy(t, cfg), nil },
	})
	if err == nil || !strings.Contains(err.Error(), "Verify") {
		t.Fatalf("Verify over recovered data: got %v, want rejection", err)
	}
}

// TestShardedDurableRoundTrip runs the same cycle through the sharded
// router: each shard gets its own subdirectory, and a reboot recovers
// every shard.
func TestShardedDurableRoundTrip(t *testing.T) {
	dir := t.TempDir()
	build := func() *Sharded {
		cfg := durableCfg()
		s, err := NewSharded(ShardedConfig{
			Engine: EngineConfig{
				Store:       cfg,
				ServiceTime: time.Microsecond,
				Durable:     &segfile.Options{Dir: dir, Sync: segfile.SyncAlways},
			},
			Shards: 2,
			PolicyFactory: func(shard int, scfg lss.Config) (lss.Policy, error) {
				return placement.New(placement.NameSepGC, placement.Params{
					UserBlocks:    scfg.UserBlocks,
					SegmentBlocks: scfg.SegmentBlocks(),
					ChunkBlocks:   scfg.ChunkBlocks,
				})
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	s := build()
	for i := int64(0); i < 1200; i++ {
		if err := s.Write(i%4000, 1); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	s2 := build()
	defer s2.Close()
	if !s2.Recovered() {
		t.Fatal("sharded reboot did not recover")
	}
	ds, ok := s2.DurableStats()
	if !ok || ds.RecoveredSegments == 0 {
		t.Fatalf("sharded recovery stats: ok=%v %+v", ok, ds)
	}
}

// TestShardedDurableRequiresDir pins the sharded precondition: per-
// shard subdirectories need a root path, so an FS-injected Options
// without Dir is rejected up front.
func TestShardedDurableRequiresDir(t *testing.T) {
	cfg := durableCfg()
	_, err := NewSharded(ShardedConfig{
		Engine: EngineConfig{
			Store:       cfg,
			ServiceTime: time.Microsecond,
			Durable:     &segfile.Options{FS: segfile.NewMemFS()},
		},
		Shards: 2,
		PolicyFactory: func(shard int, scfg lss.Config) (lss.Policy, error) {
			return placement.New(placement.NameSepGC, placement.Params{
				UserBlocks:    scfg.UserBlocks,
				SegmentBlocks: scfg.SegmentBlocks(),
				ChunkBlocks:   scfg.ChunkBlocks,
			})
		},
	})
	if err == nil || !strings.Contains(err.Error(), "Dir") {
		t.Fatalf("sharded durable without Dir: got %v, want rejection", err)
	}
}
