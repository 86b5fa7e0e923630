package prototype

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"adapt/internal/fault"
	"adapt/internal/stats"
)

// FaultConfig arms the prototype's fault injector. The zero value
// disables it; setting FailAtOp (with FailDevice) schedules one
// deterministic failure, setting MTBFOps instead draws the failure
// from a seeded exponential schedule over the run's op horizon.
//
// The plan fields (FailDevice through RebuildBurst) drive Run; the
// retry, backoff and watermark fields configure the device array's
// fault runtime, which Run arms with them and Ingest.FailColumn with
// their defaults.
type FaultConfig struct {
	// FailDevice is the array column to fail (0-based, parity column
	// included) when FailAtOp is set.
	FailDevice int
	// FailAtOp fires the failure when the measured user-op counter
	// reaches this value (first op = 1). Zero disables the fixed plan.
	FailAtOp int64
	// MTBFOps, when positive, replaces the fixed plan with a seeded
	// exponential failure schedule with this mean (in ops); the first
	// event inside the run's op horizon becomes the failure. A schedule
	// with no event inside the horizon leaves the run healthy.
	MTBFOps int64
	// RebuildDelayOps is how many further user ops pass between the
	// failure and the start of the rebuild (detection + spare swap-in
	// time, expressed in load units so it scales with the run).
	RebuildDelayOps int64
	// RebuildBurst is how many chunks each rebuild round pushes through
	// the device queues before re-checking the watermark (default 8).
	RebuildBurst int
	// QueueTimeout bounds one queue-send attempt before it counts as a
	// retry (default 2ms).
	QueueTimeout time.Duration
	// RetryMax is how many timed-out attempts precede the final
	// blocking send; operations are never dropped (default 5).
	RetryMax int
	// BackoffBase and BackoffCap shape the capped exponential backoff
	// between retries (defaults 50µs / 5ms, see fault.Backoff).
	BackoffBase time.Duration
	BackoffCap  time.Duration
	// DegradedGCWatermark is the rebuild-progress fraction below which
	// the store runs throttled degraded-mode GC. Zero takes the default
	// 0.5; must be at most 1.
	DegradedGCWatermark float64
}

// Enabled reports whether the injector is armed.
func (f FaultConfig) Enabled() bool { return f.FailAtOp > 0 || f.MTBFOps > 0 }

// Phase is one stage of a fault run's lifecycle.
type Phase int

// Fault-run phases in order.
const (
	PhaseHealthy Phase = iota
	PhaseDegraded
	PhaseRebuilding
	PhaseRebuilt
	numPhases
)

// String names the phase as used in experiment tables.
func (p Phase) String() string {
	switch p {
	case PhaseHealthy:
		return "healthy"
	case PhaseDegraded:
		return "degraded"
	case PhaseRebuilding:
		return "rebuilding"
	case PhaseRebuilt:
		return "rebuilt"
	default:
		return fmt.Sprintf("phase(%d)", int(p))
	}
}

// PhaseStats summarizes one phase of a fault run.
type PhaseStats struct {
	Phase     Phase
	Ops       int64
	Elapsed   time.Duration
	OpsPerSec float64
	// WA is the write amplification of traffic issued during the phase
	// (delta of user+GC blocks over delta of user blocks).
	WA float64
	// P99 is the 99th-percentile client-observed op latency: the time
	// from op start to the store accepting the write (or read) and its
	// chunk traffic entering the device queues.
	P99 time.Duration
}

// withDefaults validates the array-side settings and fills their
// defaults.
func (f FaultConfig) withDefaults() (FaultConfig, error) {
	if f.DegradedGCWatermark < 0 || f.DegradedGCWatermark > 1 {
		return f, fmt.Errorf("prototype: degraded GC watermark %v outside [0,1]", f.DegradedGCWatermark)
	}
	if f.DegradedGCWatermark == 0 {
		f.DegradedGCWatermark = 0.5
	}
	if f.RebuildBurst < 1 {
		f.RebuildBurst = 8
	}
	if f.QueueTimeout <= 0 {
		f.QueueTimeout = 2 * time.Millisecond
	}
	if f.RetryMax < 1 {
		f.RetryMax = 5
	}
	return f, nil
}

// faultRun is Run's side of a fault run: the resolved failure plan and
// the phase accounting. The failure itself — dropped chunks, degraded
// reads, retries, the rebuild — lives in the engine's device array.
type faultRun struct {
	cfg     FaultConfig
	failDev int
	failOp  int64

	// phase is the lifecycle stage, read lock-free by clients. Each
	// phase is entered by one goroutine, ordered by phase itself:
	// healthy before the clients start, degraded by the failing client,
	// rebuilding and rebuilt by the rebuild goroutine once it saw
	// degraded; finish runs after all of them.
	phase   atomic.Int32
	entered [numPhases]bool
	startT  [numPhases]time.Time
	snaps   [numPhases]EngineStats

	// collectMu guards the merged per-phase latency samples and op
	// counts that clients contribute when they finish.
	collectMu sync.Mutex
	latNS     [numPhases][]float64
	phaseOps  [numPhases]int64
}

// newFaultRun validates the fault configuration and resolves the
// failure plan to a single (device, op) pair. It returns (nil, nil)
// when the injector is disabled or the MTBF schedule stays quiet
// within the run's horizon.
func newFaultRun(cfg *Config, ncols int) (*faultRun, error) {
	if !cfg.Fault.Enabled() {
		return nil, nil
	}
	f, err := cfg.Fault.withDefaults()
	if err != nil {
		return nil, err
	}
	if f.RebuildDelayOps < 0 {
		return nil, fmt.Errorf("prototype: negative rebuild delay %d", f.RebuildDelayOps)
	}
	var failDev int
	var failOp int64
	if f.MTBFOps > 0 {
		// Offset the seed so the failure draw is independent of the
		// clients' zipfian streams.
		plan := fault.MTBF(cfg.Seed+0x9e3779b97f4a7c15, f.MTBFOps, ncols, cfg.Ops)
		ev, ok := plan.Next()
		if !ok {
			return nil, nil
		}
		failDev, failOp = ev.Device, ev.Op
	} else {
		failDev, failOp = f.FailDevice, f.FailAtOp
		if failDev < 0 || failDev >= ncols {
			return nil, fmt.Errorf("prototype: fail device %d outside array of %d columns", failDev, ncols)
		}
		if failOp > cfg.Ops {
			return nil, fmt.Errorf("prototype: fail op %d beyond run of %d ops", failOp, cfg.Ops)
		}
	}
	return &faultRun{cfg: f, failDev: failDev, failOp: failOp}, nil
}

// enter records a phase boundary: traffic snapshot, wall time, and the
// lock-free phase flag.
func (fr *faultRun) enter(p Phase, s EngineStats) {
	fr.snaps[p] = s
	fr.startT[p] = time.Now()
	fr.entered[p] = true
	fr.phase.Store(int32(p))
}

// waitForRebuild blocks until the failure has fired and the configured
// op delay has elapsed (or the clients finished first). It reports
// whether a rebuild is actually needed.
func (fr *faultRun) waitForRebuild(issued *atomic.Int64, clientsDone <-chan struct{}) bool {
	trigger := fr.failOp + fr.cfg.RebuildDelayOps
	for {
		if fr.phase.Load() >= int32(PhaseDegraded) && issued.Load() >= trigger {
			return true
		}
		select {
		case <-clientsDone:
			// Clients drained before the delay elapsed; rebuild anyway if
			// the failure fired, otherwise there is nothing to do.
			return fr.phase.Load() >= int32(PhaseDegraded)
		default:
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// collect merges one client's per-phase latency samples and op counts.
func (fr *faultRun) collect(latNS [numPhases][]float64, ops [numPhases]int64) {
	fr.collectMu.Lock()
	for p := range latNS {
		fr.latNS[p] = append(fr.latNS[p], latNS[p]...)
		fr.phaseOps[p] += ops[p]
	}
	fr.collectMu.Unlock()
}

// finish folds the phase accounting into the run result: the
// per-phase throughput/WA/P99 table. final is the traffic at the end
// of the measured phase.
func (fr *faultRun) finish(res *Result, end time.Time, final EngineStats) {
	res.FailedDevice = fr.failDev
	res.FailedAtOp = fr.failOp
	for p := Phase(0); p < numPhases; p++ {
		if !fr.entered[p] {
			continue
		}
		stop, snap := end, final
		for q := p + 1; q < numPhases; q++ {
			if fr.entered[q] {
				stop, snap = fr.startT[q], fr.snaps[q]
				break
			}
		}
		ps := PhaseStats{
			Phase:   p,
			Ops:     fr.phaseOps[p],
			Elapsed: stop.Sub(fr.startT[p]),
		}
		if ps.Elapsed > 0 {
			ps.OpsPerSec = float64(ps.Ops) / ps.Elapsed.Seconds()
		}
		if du := snap.UserBlocks - fr.snaps[p].UserBlocks; du > 0 {
			ps.WA = float64(du+snap.GCBlocks-fr.snaps[p].GCBlocks) / float64(du)
		} else {
			ps.WA = 1
		}
		if samples := fr.latNS[p]; len(samples) > 0 {
			ps.P99 = time.Duration(stats.Percentile(samples, 99))
		}
		res.Phases = append(res.Phases, ps)
	}
}
