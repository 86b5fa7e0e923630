package prototype

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"adapt/internal/fault"
	"adapt/internal/sim"
	"adapt/internal/telemetry"
)

// chunkJob is one modelled device operation: a chunk write (data,
// parity, or rebuilt spare content) or a chunk-sized read.
type chunkJob struct {
	read bool
}

// device models one SSD: a bounded queue drained by a worker that
// accrues the configured service time per chunk and throttles to it.
type device struct {
	ch chan chunkJob
	// stored counts chunk writes the worker serviced — what a rebuild of
	// this column has to reconstruct.
	stored atomic.Int64

	// Telemetry instruments; nil (no-op) when telemetry is disabled.
	busyNS *telemetry.Counter
	chunks *telemetry.Counter
}

// send queues job, returning how long it blocked on a full queue. The
// blocked time is measured only when timed; untimed it is a plain
// channel send.
func (d *device) send(job chunkJob, timed bool) int64 {
	if !timed {
		d.ch <- job
		return 0
	}
	select {
	case d.ch <- job:
		return 0
	default:
	}
	t0 := time.Now()
	d.ch <- job
	return time.Since(t0).Nanoseconds()
}

// deviceArray models the physical SSD array: per-column bounded
// queues drained by workers that accrue the configured service time
// per chunk and throttle to the modelled bandwidth. One deviceArray
// backs every shard of an engine — shards partition the LBA space, not
// the hardware — so user, GC, padding and rebuild traffic all compete
// for the same columns.
//
// The array also owns the fault runtime. fail takes one column down:
// chunk writes bound for it are dropped and counted lost, reads aimed
// at it fan out to every survivor (XOR reconstruction), and every
// other send goes through the retry/backoff dispatch. rebuildStep
// streams the lost column back through the same queues, stealing real
// modelled bandwidth from foreground traffic.
type deviceArray struct {
	devices      []*device
	wg           sync.WaitGroup
	start        time.Time
	readService  time.Duration
	writeService time.Duration
	closeOnce    sync.Once

	// failed is the failed column, -1 while healthy. It stays set until
	// the rebuild ends, and it is the only fault state the healthy
	// write and read paths touch.
	failed atomic.Int32

	// mu guards the failure plan and rebuild progress below. The retry
	// settings are written before failed is published and only read
	// while it is set.
	mu           sync.Mutex
	fcfg         FaultConfig
	backoff      fault.Backoff
	rebuildTotal int64 // chunks stored on the failed column at failure
	rebuildDone  int64
	rebuilding   bool
	lifted       bool // progress reached the degraded-GC watermark

	degReads atomic.Int64
	lost     atomic.Int64
	rebuilt  atomic.Int64
	retries  atomic.Int64

	tracer    *telemetry.Tracer
	retryHist *telemetry.Histogram
}

func newDeviceArray(ncols, queueDepth int, writeService, readService time.Duration) *deviceArray {
	da := &deviceArray{
		devices:      make([]*device, ncols),
		start:        time.Now(),
		readService:  readService,
		writeService: writeService,
	}
	da.failed.Store(-1)
	for i := range da.devices {
		da.devices[i] = &device{ch: make(chan chunkJob, queueDepth)}
	}
	for _, d := range da.devices {
		da.wg.Add(1)
		go func(d *device) {
			defer da.wg.Done()
			var virtual time.Duration
			for job := range d.ch {
				if job.read {
					virtual += da.readService
					d.busyNS.Add(int64(da.readService))
				} else {
					virtual += da.writeService
					d.busyNS.Add(int64(da.writeService))
					d.stored.Add(1)
				}
				d.chunks.Inc()
				// Throttle to the modelled bandwidth, sleeping only
				// when the debt is large enough for the OS timer.
				// The granule trades timer pressure for tail
				// fidelity: sleeping off a large debt in one go
				// quantizes every enqueue stall behind it to the full
				// sleep, which would put a multi-millisecond floor
				// under the serving layer's p999 that no GC
				// scheduling could get beneath.
				if lag := virtual - time.Since(da.start); lag > 200*time.Microsecond {
					time.Sleep(lag)
				}
			}
		}(d)
	}
	return da
}

// now is the array's wall-derived simulated clock, shared by every
// shard on it so interference intervals and spans align.
func (da *deviceArray) now() sim.Time { return sim.Time(time.Since(da.start)) }

// registerTelemetry exposes per-device counters and queue gauges plus
// the fault runtime's counters, retry histogram, and lifecycle events.
// Call at most once per array (the owning engine does).
func (da *deviceArray) registerTelemetry(ts *telemetry.Set) {
	reg := ts.Registry
	for i, d := range da.devices {
		d.busyNS = reg.NewCounter(
			fmt.Sprintf("%s{device=\"%d\"}", telemetry.MetricDeviceBusyPrefix, i),
			"Modelled device service time consumed")
		d.chunks = reg.NewCounter(
			fmt.Sprintf("%s{device=\"%d\"}", telemetry.MetricDeviceChunksPrefix, i),
			"Chunk operations serviced")
		ch := d.ch
		reg.NewFuncGauge(
			fmt.Sprintf("%s{device=\"%d\"}", telemetry.MetricDeviceQueuePrefix, i),
			"Queued chunk operations", false,
			func() int64 { return int64(len(ch)) })
	}
	da.tracer = ts.Tracer
	reg.NewFuncGauge(telemetry.MetricDegradedReads,
		"Reads served by XOR reconstruction fan-out", true,
		func() int64 { return da.degReads.Load() })
	reg.NewFuncGauge(telemetry.MetricRebuildChunks,
		"Chunks the rebuild pushed through the device queues", true,
		func() int64 { return da.rebuilt.Load() })
	reg.NewFuncGauge(telemetry.MetricLostChunks,
		"Chunk writes dropped on the failed column", true,
		func() int64 { return da.lost.Load() })
	reg.NewFuncGauge(telemetry.MetricQueueRetries,
		"Queue sends that timed out and retried after backoff", true,
		func() int64 { return da.retries.Load() })
	da.retryHist = reg.NewHistogram(telemetry.MetricRetryHistogram,
		"Retries per dispatched device operation", []int64{0, 1, 2, 4, 8})
}

// write queues one chunk write of a stripe on column col and returns
// how long it blocked (see device.send). While a column is failed,
// chunks bound for it are dropped and counted lost: on a real array
// their content is implied by parity, and here the spare takes
// post-failure rows directly, so they never enter the rebuild.
func (da *deviceArray) write(col int, timed bool) int64 {
	if f := int(da.failed.Load()); f >= 0 {
		if col == f {
			da.lost.Add(1)
			return 0
		}
		return da.dispatch(col, chunkJob{})
	}
	return da.devices[col].send(chunkJob{}, timed)
}

// read queues one chunk read on column col and returns how long it
// blocked. A read aimed at the failed column fans out to every
// survivor instead: the XOR reconstruction path.
func (da *deviceArray) read(col int, timed bool) int64 {
	f := int(da.failed.Load())
	if f < 0 {
		return da.devices[col].send(chunkJob{read: true}, timed)
	}
	if col != f {
		return da.dispatch(col, chunkJob{read: true})
	}
	da.degReads.Add(1)
	var ns int64
	for c := range da.devices {
		if c != f {
			ns += da.dispatch(c, chunkJob{read: true})
		}
	}
	return ns
}

// dispatch is the send used while a column is failed: a non-blocking
// attempt, then QueueTimeout-bounded attempts separated by capped
// exponential backoff, and after RetryMax retries a blocking send —
// device operations are delayed, never dropped. It returns the time
// spent past the first attempt.
func (da *deviceArray) dispatch(col int, job chunkJob) int64 {
	d := da.devices[col]
	select {
	case d.ch <- job:
		da.retryHist.Observe(0)
		return 0
	default:
	}
	t0 := time.Now()
	var retries int64
	for {
		t := time.NewTimer(da.fcfg.QueueTimeout)
		select {
		case d.ch <- job:
			t.Stop()
			da.retryHist.Observe(retries)
			return time.Since(t0).Nanoseconds()
		case <-t.C:
		}
		retries++
		da.retries.Add(1)
		if retries >= int64(da.fcfg.RetryMax) {
			d.ch <- job
			da.retryHist.Observe(retries)
			return time.Since(t0).Nanoseconds()
		}
		time.Sleep(da.backoff.Delay(int(retries) - 1))
	}
}

// fail takes column col down under the retry and watermark settings of
// fc (zero fields take the FaultConfig defaults) and freezes the
// rebuild total at the chunks the column holds. op is the failing
// operation, for the trace. Callers must hold every shard lock, so no
// sink runs while the failure is armed.
func (da *deviceArray) fail(col int, fc FaultConfig, op int64) error {
	if col < 0 || col >= len(da.devices) {
		return fmt.Errorf("prototype: column %d outside array of %d columns", col, len(da.devices))
	}
	fc, err := fc.withDefaults()
	if err != nil {
		return err
	}
	da.mu.Lock()
	defer da.mu.Unlock()
	if f := da.failed.Load(); f >= 0 {
		return fmt.Errorf("prototype: column %d already failed", f)
	}
	da.fcfg = fc
	da.backoff = fault.Backoff{Base: fc.BackoffBase, Cap: fc.BackoffCap}
	da.rebuildTotal = da.devices[col].stored.Load()
	da.rebuildDone = 0
	da.rebuilding, da.lifted = false, false
	da.failed.Store(int32(col))
	da.tracer.Emit(telemetry.DeviceFailed(da.now(), col, op))
	return nil
}

// rebuildStep reconstructs up to maxChunks chunks of the failed column:
// one reconstruction read on every survivor plus the spare write, all
// through the bounded queues user traffic uses. It reports the chunks
// moved, whether this step carried progress past the degraded-GC
// watermark (once per failure), and whether the column is fully
// rebuilt. A healthy array is trivially done.
//
// mu stays held across the (possibly blocking) sends: concurrent
// RebuildStep calls then advance one rebuild in order, and a FailColumn
// racing the last burst waits for it instead of re-arming the retry
// settings under a dispatch. Sinks never take mu, so the wait is only
// ever on the device workers, which always drain.
func (da *deviceArray) rebuildStep(maxChunks int) (n int, lift, done bool) {
	da.mu.Lock()
	defer da.mu.Unlock()
	f := int(da.failed.Load())
	if f < 0 {
		return 0, false, true
	}
	if !da.rebuilding {
		da.rebuilding = true
		da.tracer.Emit(telemetry.RebuildStart(da.now(), f, da.rebuildTotal))
	}
	for ; n < maxChunks && da.rebuildDone < da.rebuildTotal; n++ {
		for c := range da.devices {
			if c != f {
				da.dispatch(c, chunkJob{read: true})
			}
		}
		da.dispatch(f, chunkJob{})
		da.rebuildDone++
	}
	da.rebuilt.Add(int64(n))
	if !da.lifted && float64(da.rebuildDone) >= da.fcfg.DegradedGCWatermark*float64(da.rebuildTotal) {
		da.lifted, lift = true, true
	}
	return n, lift, da.rebuildDone == da.rebuildTotal
}

// endRebuild returns the rebuilt column to service: the array is
// healthy again and sends go back to the plain path.
func (da *deviceArray) endRebuild() {
	da.mu.Lock()
	defer da.mu.Unlock()
	if f := int(da.failed.Load()); f >= 0 {
		da.tracer.Emit(telemetry.RebuildEnd(da.now(), f, da.rebuildTotal))
		da.failed.Store(-1)
	}
}

// queueFill reports the fill fraction of the most backlogged column's
// queue. Channel length is safe to read concurrently, so this needs no
// lock — it is a pacing heuristic, not a synchronized snapshot.
func (da *deviceArray) queueFill() float64 {
	var worst float64
	for _, d := range da.devices {
		if f := float64(len(d.ch)) / float64(cap(d.ch)); f > worst {
			worst = f
		}
	}
	return worst
}

// close shuts the device queues and waits for the workers. Safe to
// call once; callers must guarantee no further sends.
func (da *deviceArray) close() {
	da.closeOnce.Do(func() {
		for _, d := range da.devices {
			close(d.ch)
		}
	})
	da.wg.Wait()
}
