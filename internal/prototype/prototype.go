// Package prototype is the concurrent counterpart of the trace-driven
// simulator, mirroring the paper's prototype experiments (§4.4):
// client goroutines issue zipfian 4 KiB writes through a shared
// log-structured store; every chunk flush is dispatched to a
// bandwidth-modelled SSD in a RAID-5 layout (rotating parity) through
// bounded per-device queues, so GC and padding traffic compete with
// user writes for device time exactly as on the real array. Device
// service is modelled with a virtual-time throttle rather than
// per-operation sleeps, keeping the benchmark fast while preserving
// the bandwidth ceiling.
package prototype

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"adapt/internal/lss"
	"adapt/internal/sim"
	"adapt/internal/telemetry"
	"adapt/internal/workload"
)

// Config describes one prototype run.
type Config struct {
	// Store is the store geometry (chunk size, capacity, SLA window).
	Store lss.Config
	// Policy is the placement policy instance to drive.
	Policy lss.Policy
	// Clients is the number of writer goroutines.
	Clients int
	// Ops is the total number of 4 KiB user writes across clients.
	Ops int64
	// Theta is the zipfian skew of the update stream (YCSB-A: 0.99).
	Theta float64
	// Fill writes every block sequentially before the measured phase,
	// so the update stream runs at full utilization (GC active), as
	// the paper's prototype does after loading.
	Fill bool
	// ReadRatio interleaves reads at this fraction of operations
	// (YCSB-A: 0.5). Reads consume device time (ReadServiceTime per
	// chunk-sized access) on a random column, competing with writes.
	ReadRatio float64
	// ReadServiceTime is the device time per read (default half the
	// write service time: reads skip the program/parity path).
	ReadServiceTime time.Duration
	// ServiceTime is the modelled device time per chunk write
	// (≈ chunk size / per-SSD bandwidth).
	ServiceTime time.Duration
	// QueueDepth bounds each device's queue (paper: I/O depth 8).
	QueueDepth int
	// Seed drives the zipfian streams.
	Seed uint64
	// GCSliceUnits is the per-operation background-GC budget when
	// Store.BackgroundGC is set (default 32): each client op donates one
	// bounded GCStep slice under the store lock, so collection overlaps
	// the run instead of stalling single writes for whole cycles. Ignored
	// without BackgroundGC.
	GCSliceUnits int
	// Telemetry, when set, attaches live instrumentation: the store's
	// canonical metrics and events, plus per-device busy time, queue
	// depth, and chunk counters. The recorder windows on the run's
	// wall-derived clock (time since start). Nil disables telemetry at
	// zero hot-path cost.
	Telemetry *telemetry.Set
	// Fault arms the fault injector: a device failure mid-run, degraded
	// reads, throttled GC, and a bandwidth-stealing rebuild. The zero
	// value keeps the run healthy.
	Fault FaultConfig
}

// Result summarizes a prototype run.
type Result struct {
	OpsPerSec     float64
	Elapsed       time.Duration
	WA            float64
	EffectiveWA   float64
	PaddingRatio  float64
	ChunksWritten int64
	ParityChunks  int64

	UserBlocks, GCBlocks, ShadowBlocks, PaddingBlocks int64

	// Fault-run accounting; FailedDevice is -1 when the run stayed
	// healthy and Phases is nil unless the injector was armed.
	FailedDevice  int
	FailedAtOp    int64
	DegradedReads int64
	RebuildChunks int64
	LostChunks    int64
	QueueRetries  int64
	Phases        []PhaseStats
}

// Run executes the prototype experiment: Clients goroutines drive a
// one-shard Sharded engine (the array model every engine shares)
// through Ingest, and an armed Fault fails a column mid-run and
// rebuilds it. Run itself keeps only the run lifecycle — the failure
// plan, phase accounting, and per-phase latency.
func Run(cfg Config) (Result, error) {
	if cfg.Clients < 1 {
		return Result{}, fmt.Errorf("prototype: need at least one client")
	}
	if cfg.Ops < 1 {
		return Result{}, fmt.Errorf("prototype: need at least one op")
	}
	fr, err := newFaultRun(&cfg, cfg.Store.GeometryDefaults().DataColumns+1)
	if err != nil {
		return Result{}, err
	}
	s, err := NewSharded(ShardedConfig{
		Engine: EngineConfig{
			Store:           cfg.Store,
			ServiceTime:     cfg.ServiceTime,
			ReadServiceTime: cfg.ReadServiceTime,
			QueueDepth:      cfg.QueueDepth,
			Fill:            cfg.Fill,
			Telemetry:       cfg.Telemetry,
		},
		Shards:        1,
		PolicyFactory: func(int, lss.Config) (lss.Policy, error) { return cfg.Policy, nil },
	})
	if err != nil {
		return Result{}, err
	}
	eng := s.Shard(0)
	bgStep := 0
	if cfg.Store.BackgroundGC {
		bgStep = cfg.GCSliceUnits
		if bgStep <= 0 {
			bgStep = 32
		}
	}

	measureStart := time.Now()
	if fr != nil {
		fr.enter(PhaseHealthy, s.Stats())
	}
	var issued atomic.Int64
	var clientWG sync.WaitGroup
	clientsDone := make(chan struct{})
	var rebuildWG sync.WaitGroup
	if fr != nil {
		rebuildWG.Add(1)
		go func() {
			defer rebuildWG.Done()
			if !fr.waitForRebuild(&issued, clientsDone) {
				return
			}
			fr.enter(PhaseRebuilding, s.Stats())
			for {
				_, done, err := s.RebuildStep(fr.cfg.RebuildBurst)
				if err != nil {
					panic(err) // the engine outlives the rebuild; this is a bug
				}
				if done {
					break
				}
			}
			fr.enter(PhaseRebuilt, s.Stats())
		}()
	}
	for c := 0; c < cfg.Clients; c++ {
		clientWG.Add(1)
		go func(c int) {
			defer clientWG.Done()
			rng := sim.NewRNG(cfg.Seed + uint64(c)*7919)
			z := workload.NewZipf(rng, cfg.Store.UserBlocks, cfg.Theta, true)
			var latNS [numPhases][]float64
			var phaseOps [numPhases]int64
			for {
				op := issued.Add(1)
				if op > cfg.Ops {
					break
				}
				if fr != nil && op == fr.failOp {
					if err := s.failColumn(fr.failDev, fr.cfg, op); err != nil {
						panic(err) // the plan was validated; this is a bug
					}
					fr.enter(PhaseDegraded, s.Stats())
				}
				lba := z.Next()
				var p Phase
				var t0 time.Time
				if fr != nil {
					p = Phase(fr.phase.Load())
					t0 = time.Now()
				}
				// Reads bypass the log but occupy a column (all of the
				// survivors, when aimed at a failed one).
				var err error
				if cfg.ReadRatio > 0 && rng.Float64() < cfg.ReadRatio {
					err = s.Read(lba, 1)
				} else {
					err = s.Write(lba, 1)
				}
				if err != nil {
					panic(err) // LBAs are generated in range; this is a bug
				}
				if bgStep > 0 {
					eng.GCStep(bgStep)
				}
				if fr != nil {
					latNS[p] = append(latNS[p], float64(time.Since(t0)))
					phaseOps[p]++
				}
			}
			if fr != nil {
				fr.collect(latNS, phaseOps)
			}
		}(c)
	}
	clientWG.Wait()
	close(clientsDone)
	rebuildWG.Wait()
	measureEnd := time.Now() // phase accounting stops before the drain
	if bgStep > 0 {
		for !eng.GCStep(1 << 30) { // settle in-flight GC before the drain
		}
	}
	closeErr := s.Close() // drains, stops the devices, checks invariants
	elapsed := time.Since(measureStart)

	st := s.Stats()
	res := Result{
		Elapsed:       elapsed,
		WA:            st.WA,
		EffectiveWA:   st.EffectiveWA,
		PaddingRatio:  st.PaddingRatio,
		ChunksWritten: eng.store.Array().DataChunks(),
		ParityChunks:  st.ParityChunks,
		UserBlocks:    st.UserBlocks,
		GCBlocks:      st.GCBlocks,
		ShadowBlocks:  st.ShadowBlocks,
		PaddingBlocks: st.PaddingBlocks,
		FailedDevice:  -1,
		DegradedReads: s.devs.degReads.Load(),
		RebuildChunks: s.devs.rebuilt.Load(),
		LostChunks:    s.devs.lost.Load(),
		QueueRetries:  s.devs.retries.Load(),
	}
	if elapsed > 0 {
		res.OpsPerSec = float64(cfg.Ops) / elapsed.Seconds()
	}
	if fr != nil {
		fr.finish(&res, measureEnd, st)
	}
	return res, closeErr
}

// FootprintReporter is implemented by policies that can report their
// metadata memory cost.
type FootprintReporter interface {
	Footprint() int64
}

// Footprint returns a policy's reported metadata bytes, or 0 if the
// policy does not report one.
func Footprint(p lss.Policy) int64 {
	if f, ok := p.(FootprintReporter); ok {
		return f.Footprint()
	}
	return 0
}
