package prototype

import (
	"bytes"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"adapt/internal/sim"
	"adapt/internal/telemetry"
)

// TestPrototypeRace runs concurrent clients with telemetry attached
// while a scraper goroutine continuously snapshots the registry,
// recorder, and tracer — the live-introspection pattern of the debug
// HTTP endpoint. Run under -race it proves the concurrency contract:
// atomic counters, cached function gauges, and the mutex-guarded
// recorder/tracer never race with the store's writers.
func TestPrototypeRace(t *testing.T) {
	ts := telemetry.New(telemetry.Options{
		WindowInterval: sim.Time(time.Millisecond),
		EventCapacity:  1024,
	})
	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		var buf bytes.Buffer
		for !stop.Load() {
			buf.Reset()
			if err := ts.Registry.WriteProm(&buf); err != nil {
				t.Error(err)
				return
			}
			buf.Reset()
			if err := ts.Tracer.WriteJSONL(&buf); err != nil {
				t.Error(err)
				return
			}
			buf.Reset()
			if err := telemetry.WriteWindowsJSONL(&buf, ts.Recorder.Windows()); err != nil {
				t.Error(err)
				return
			}
			ts.Recorder.Dropped()
			ts.Tracer.Len()
		}
	}()

	res, err := Run(Config{
		Store:       protoStoreConfig(),
		Policy:      protoPolicy(t),
		Clients:     8,
		Ops:         20000,
		Theta:       0.99,
		Fill:        true,
		ReadRatio:   0.2,
		ServiceTime: time.Microsecond,
		QueueDepth:  8,
		Seed:        11,
		Telemetry:   ts,
	})
	stop.Store(true)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if res.OpsPerSec <= 0 {
		t.Fatal("no throughput")
	}
	// The attached set must agree with the run result on totals. Run
	// drives a one-shard engine, so the store series carry shard 0.
	ws := ts.Recorder.Windows()
	if len(ws) == 0 {
		t.Fatal("no telemetry windows recorded")
	}
	last := &ws[len(ws)-1]
	if v, _ := last.Value(telemetry.ShardName(telemetry.MetricUserBlocks, 0)); v != res.UserBlocks {
		t.Fatalf("telemetry user blocks %d, run reported %d", v, res.UserBlocks)
	}
	if v, _ := last.Value(telemetry.ShardName(telemetry.MetricPaddingBlocks, 0)); v != res.PaddingBlocks {
		t.Fatalf("telemetry padding blocks %d, run reported %d", v, res.PaddingBlocks)
	}
	// Per-device instruments registered and accumulated.
	var busy int64
	for _, in := range ts.Registry.Scalars() {
		if telemetry.LabelValue(in.Name(), "device") != "" && in.Cumulative() {
			busy += in.Load()
		}
	}
	if busy == 0 {
		t.Fatal("per-device counters never accumulated")
	}
	if ts.Tracer.Len() == 0 {
		t.Fatal("no events traced")
	}
}
