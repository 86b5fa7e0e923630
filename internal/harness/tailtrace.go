package harness

import (
	"errors"
	"fmt"
	"net"
	"sort"
	"strings"
	"sync"
	"time"

	"adapt/internal/fault"
	"adapt/internal/prototype"
	"adapt/internal/server"
	"adapt/internal/sim"
	"adapt/internal/stats"
	"adapt/internal/telemetry"
	"adapt/internal/workload"
)

// TailTraceOptions sizes the tail-latency attribution experiment: one
// full serving stack (engine + network server + closed-loop tenants)
// per policy, with request tracing enabled so every client-observed
// op window can be checked against the GC interference intervals the
// store publishes.
type TailTraceOptions struct {
	// Blocks is the store footprint; the engine pre-fills it so GC is
	// active from the first op.
	Blocks int64
	// Tenants is the volume/connection count; Workers the closed-loop
	// pipelined workers per tenant.
	Tenants int
	Workers int
	// Duration is the measured wall-clock window per policy.
	Duration time.Duration
	// WriteFrac and Theta shape the workload (zipfian over each
	// volume's LBA space).
	WriteFrac float64
	Theta     float64
	// ServiceTime is the modelled per-chunk device time.
	ServiceTime time.Duration
}

// DefaultTailTraceOptions sizes the experiment for the given scale:
// a quarter of the YCSB footprint, write-heavy so GC churns, and a
// window long enough for dozens of GC cycles per policy.
func DefaultTailTraceOptions(sc Scale) TailTraceOptions {
	return TailTraceOptions{
		Blocks:      sc.YCSBBlocks / 4,
		Tenants:     4,
		Workers:     4,
		Duration:    1500 * time.Millisecond,
		WriteFrac:   0.9,
		Theta:       0.99,
		ServiceTime: 5 * time.Microsecond,
	}
}

// TailTraceRow is one policy's tail-attribution summary.
type TailTraceRow struct {
	Policy string
	// Ops is the completed client op count; P50/P99/P999 are
	// client-observed latencies.
	Ops  int64
	P50  time.Duration
	P99  time.Duration
	P999 time.Duration
	// GCCycles and GCBusyFrac describe the interference source: cycle
	// count and the fraction of the run the store spent inside GC.
	GCCycles   int64
	GCBusyFrac float64
	// SlowOps is the op count at or above P999; SlowGCFrac the
	// fraction of those whose lifetime overlapped a GC cycle, and
	// AllGCFrac the same fraction over every op — the gap between the
	// two is GC's disproportionate share of the tail.
	SlowOps    int64
	SlowGCFrac float64
	AllGCFrac  float64
}

// TailTraceResult holds the experiment output.
type TailTraceResult struct {
	Opts TailTraceOptions
	Rows []TailTraceRow
}

// opRecord is one completed client op on the engine clock: the window
// [Start, End] is compared against GC intervals from the same clock.
type opRecord struct {
	start, end sim.Time
}

// ExpTailTrace boots the full serving stack once per policy — engine,
// batching network server with tracing enabled, closed-loop zipfian
// tenants over loopback TCP — and attributes the client-observed P999
// tail to GC by overlapping each slow op's lifetime with the GC
// interference intervals the store published on the shared clock.
func ExpTailTrace(sc Scale, policies []string, opts TailTraceOptions) (*TailTraceResult, error) {
	if opts.Blocks <= 0 {
		opts.Blocks = sc.YCSBBlocks / 4
	}
	if opts.Tenants <= 0 {
		opts.Tenants = 4
	}
	if opts.Workers <= 0 {
		opts.Workers = 4
	}
	if opts.Duration <= 0 {
		opts.Duration = time.Second
	}
	out := &TailTraceResult{Opts: opts}
	for _, polName := range policies {
		row, err := runTailTrace(sc, polName, opts)
		if err != nil {
			return nil, fmt.Errorf("tailtrace %s: %w", polName, err)
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

func runTailTrace(sc Scale, polName string, opts TailTraceOptions) (TailTraceRow, error) {
	cfg := StoreConfig(opts.Blocks, 0)
	// The interval ring must hold every GC cycle of the run: a
	// write-heavy window can exceed the default 4096 and evictions
	// would silently drop attribution for early ops.
	ts := telemetry.New(telemetry.Options{EventCapacity: 1 << 16})
	eng, err := prototype.NewSharded(prototype.ShardedConfig{
		Engine: prototype.EngineConfig{
			Store:       cfg,
			ServiceTime: opts.ServiceTime,
			Fill:        true,
			Telemetry:   ts,
		},
		Shards:        1,
		PolicyFactory: PolicyFactory(polName),
	})
	if err != nil {
		return TailTraceRow{}, err
	}
	defer eng.Close()
	fillEnd := eng.Now() // exclude fill-phase GC from attribution

	srv, err := server.New(server.Config{
		Engine:    eng,
		Volumes:   opts.Tenants,
		Batch:     true,
		Telemetry: ts,
		Trace:     server.TraceConfig{Enabled: true},
	})
	if err != nil {
		return TailTraceRow{}, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return TailTraceRow{}, err
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()

	span := srv.VolumeBlocks()
	payloadBytes := int(cfg.BlockSize)
	records := make([][]opRecord, opts.Tenants*opts.Workers)
	var wg sync.WaitGroup
	var runErr error
	var errOnce sync.Once
	deadline := time.Now().Add(opts.Duration)
	for t := 0; t < opts.Tenants; t++ {
		c, err := server.Dial(ln.Addr().String(), uint32(t))
		if err != nil {
			ln.Close()
			return TailTraceRow{}, err
		}
		c.SetBlockBytes(payloadBytes)
		defer c.Close()
		for w := 0; w < opts.Workers; w++ {
			wg.Add(1)
			go func(c *server.Client, recs *[]opRecord, seed uint64) {
				defer wg.Done()
				rng := sim.NewRNG(seed)
				zipf := workload.NewZipf(rng, span, opts.Theta, true)
				payload := make([]byte, payloadBytes)
				for i := range payload {
					payload[i] = byte(rng.Intn(256))
				}
				bo := fault.Backoff{}
				for time.Now().Before(deadline) {
					lba := zipf.Next()
					write := rng.Float64() < opts.WriteFrac
					t0 := eng.Now()
					var err error
					for attempt := 0; ; attempt++ {
						if write {
							err = c.Write(lba, payload)
						} else {
							_, err = c.Read(lba, 1)
						}
						if !errors.Is(err, server.ErrBackpressure) {
							break
						}
						time.Sleep(bo.Delay(attempt))
					}
					if err != nil {
						errOnce.Do(func() { runErr = err })
						return
					}
					*recs = append(*recs, opRecord{start: t0, end: eng.Now()})
				}
			}(c, &records[t*opts.Workers+w], sc.Seed+uint64(t*1000+w))
		}
	}
	wg.Wait()
	runEnd := eng.Now()
	ln.Close()
	<-served
	if runErr != nil {
		return TailTraceRow{}, runErr
	}

	// GC intervals on the engine clock, fill phase excluded; intervals
	// still open at run end are clamped by Overlap itself.
	var gcs []telemetry.Interval
	var gcBusy int64
	for _, iv := range ts.Intervals.Snapshot() {
		if iv.Kind != telemetry.IntervalGC || iv.End <= fillEnd {
			continue
		}
		gcs = append(gcs, iv)
		gcBusy += iv.Overlap(fillEnd, runEnd)
	}

	var all []opRecord
	for _, rs := range records {
		all = append(all, rs...)
	}
	if len(all) == 0 {
		return TailTraceRow{Policy: polName}, nil
	}
	lats := make([]float64, len(all))
	for i, r := range all {
		lats[i] = float64(r.end - r.start)
	}
	sort.Float64s(lats)
	p999 := stats.SortedPercentile(lats, 99.9)

	overlapsGC := func(r opRecord) bool {
		for _, iv := range gcs {
			if iv.Overlap(r.start, r.end) > 0 {
				return true
			}
		}
		return false
	}
	var slow, slowGC, allGC int64
	for _, r := range all {
		hit := overlapsGC(r)
		if hit {
			allGC++
		}
		if float64(r.end-r.start) >= p999 {
			slow++
			if hit {
				slowGC++
			}
		}
	}

	row := TailTraceRow{
		Policy:   polName,
		Ops:      int64(len(all)),
		P50:      time.Duration(stats.SortedPercentile(lats, 50)),
		P99:      time.Duration(stats.SortedPercentile(lats, 99)),
		P999:     time.Duration(p999),
		GCCycles: int64(len(gcs)),
		SlowOps:  slow,
	}
	if wall := int64(runEnd - fillEnd); wall > 0 {
		row.GCBusyFrac = float64(gcBusy) / float64(wall)
	}
	if slow > 0 {
		row.SlowGCFrac = float64(slowGC) / float64(slow)
	}
	row.AllGCFrac = float64(allGC) / float64(len(all))
	return row, nil
}

// Render prints the per-policy tail-attribution table.
func (r *TailTraceResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Tail-latency attribution — GC's share of the client P999 (%d tenants × %d workers, %.0f%% writes, %v)\n",
		r.Opts.Tenants, r.Opts.Workers, 100*r.Opts.WriteFrac, r.Opts.Duration)
	tb := stats.NewTable("policy", "ops", "p50", "p99", "p999",
		"gc-cycles", "gc-busy", "p999-ops", "p999∩gc", "all∩gc")
	for _, row := range r.Rows {
		tb.AddRow(row.Policy, row.Ops,
			row.P50.Round(time.Microsecond),
			row.P99.Round(time.Microsecond),
			row.P999.Round(time.Microsecond),
			row.GCCycles,
			fmt.Sprintf("%.1f%%", 100*row.GCBusyFrac),
			row.SlowOps,
			fmt.Sprintf("%.1f%%", 100*row.SlowGCFrac),
			fmt.Sprintf("%.1f%%", 100*row.AllGCFrac))
	}
	b.WriteString(tb.String())
	b.WriteString("p999∩gc: fraction of ops at/above the P999 whose lifetime overlapped a GC cycle; all∩gc: same over every op.\n")
	return b.String()
}
