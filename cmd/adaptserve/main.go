// Command adaptserve serves the ADAPT array as a multi-tenant network
// block service: the storage engine (log-structured store + modelled
// RAID-5 SSD array) behind the internal/server wire protocol, with
// live telemetry (Prometheus-style /metrics, /events.jsonl,
// /series.jsonl, /debug/pprof) on a second HTTP listener.
//
// Usage:
//
//	adaptserve -addr 127.0.0.1:9750 -telemetry 127.0.0.1:9751
//	adaptserve -volumes 8 -policy adapt -batch=false
//	adaptserve -data-dir /var/lib/adapt -durable-sync always
//	adaptserve -nbd-addr 127.0.0.1:10809
//
// With -nbd-addr the same volumes are additionally exported over the
// standard Network Block Device protocol (newstyle fixed handshake),
// one export per volume named vol0..volN-1, so a stock nbd-client or
// qemu-nbd can attach them while the bespoke wire protocol keeps
// serving on -addr.
package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"adapt/internal/cli"
	"adapt/internal/gcsched"
	"adapt/internal/harness"
	"adapt/internal/lss"
	"adapt/internal/nbd"
	"adapt/internal/prototype"
	"adapt/internal/segfile"
	"adapt/internal/server"
	"adapt/internal/telemetry"
)

func main() {
	cmd := cli.New("adaptserve",
		"adaptserve -addr 127.0.0.1:9750 -telemetry 127.0.0.1:9751",
		"adaptserve -volumes 8 -policy adapt -batch=false",
		"adaptserve -data-dir /var/lib/adapt -durable-sync always")
	fs := cmd.Flags()
	addr := fs.String("addr", "127.0.0.1:9750", "block service listen address")
	telAddr := fs.String("telemetry", "127.0.0.1:9751", "telemetry HTTP listen address (empty disables)")
	volumes := fs.Int("volumes", 8, "tenant volumes to carve from the array")
	policy := fs.String("policy", harness.PolicyADAPT, "placement policy: sepgc|dac|warcip|mida|sepbit|adapt")
	victim := fs.String("victim", "greedy", "GC victim policy: greedy|cost-benefit|d-choices")
	userBlocks := fs.Int64("user-blocks", 64<<10, "array capacity in 4 KiB blocks (RAM data plane grows with it)")
	shards := fs.Int("shards", 0, "engine shards across the LBA space (0: GOMAXPROCS, 1: unsharded)")
	batch := fs.Bool("batch", true, "coalesce small writes into chunk-aligned group commits")
	batchUS := fs.Int("batch-us", 0, "group-commit deadline in microseconds (0: the store's SLA window)")
	maxInflight := fs.Int("max-inflight", 64, "per-tenant inflight ops before backpressure")
	serviceUS := fs.Int("service-us", 50, "modelled device time per chunk write in microseconds")
	trace := fs.Bool("trace", true, "per-request tracing with tail-latency attribution (/debug/trace)")
	traceThreshUS := fs.Int("trace-threshold-us", 500, "latency above which a span becomes an exemplar")
	gcBG := fs.Bool("gc-bg", false, "background paced GC instead of synchronous watermark cycles")
	gcSliceUnits := fs.Int("gc-slice-units", 0, "pacer relocation budget per tick at urgency 1 (0: gcsched default)")
	gcIntervalUS := fs.Int("gc-interval-us", 0, "pacer tick interval in microseconds (0: gcsched default)")
	gcTargetUS := fs.Int("gc-target-p999-us", 2000, "back off non-urgent GC while traced p999 exceeds this (0 or -trace=false disables)")
	nbdAddr := fs.String("nbd-addr", "", "NBD listen address: exports every volume as vol0..volN-1 over the standard NBD protocol (empty disables)")
	nbdMaxReqKiB := fs.Int("nbd-max-req-kib", 0, "largest NBD request payload in KiB (0: protocol default of 8 MiB)")
	dataDir := fs.String("data-dir", "", "durable root: <dir>/engine holds the segment log, <dir>/volumes the tenant payload files; reboot recovers both (empty: RAM only)")
	durableSync := fs.String("durable-sync", "seal", "segment-log fsync discipline: always (every chunk append) | seal (segment seal and checkpoint)")
	odirect := fs.Bool("odirect", false, "open segment files with O_DIRECT where the filesystem supports it")
	cmd.Parse(os.Args[1:])

	if fs.NArg() != 0 {
		cmd.UsageErrorf("unexpected arguments: %v", fs.Args())
	}
	if *serviceUS < 1 {
		cmd.UsageErrorf("-service-us must be at least 1, got %d", *serviceUS)
	}
	if *volumes < 1 {
		cmd.UsageErrorf("-volumes must be at least 1, got %d", *volumes)
	}
	if *nbdMaxReqKiB < 0 {
		cmd.UsageErrorf("-nbd-max-req-kib must be non-negative, got %d", *nbdMaxReqKiB)
	}
	if *nbdMaxReqKiB > 0 && *nbdAddr == "" {
		cmd.UsageErrorf("-nbd-max-req-kib requires -nbd-addr")
	}
	var vp lss.VictimPolicy
	switch *victim {
	case "greedy":
		vp = lss.Greedy
	case "cost-benefit":
		vp = lss.CostBenefit
	case "d-choices":
		vp = lss.DChoices
	default:
		cmd.UsageErrorf("unknown victim policy %q", *victim)
	}
	cfg := harness.StoreConfig(*userBlocks, vp)
	cfg.BackgroundGC = *gcBG
	if _, err := harness.BuildPolicy(*policy, cfg); err != nil {
		cmd.UsageErrorf("%v", err)
	}
	var durable *segfile.Options
	if *dataDir != "" {
		var mode segfile.SyncMode
		switch *durableSync {
		case "always":
			mode = segfile.SyncAlways
		case "seal":
			mode = segfile.SyncOnSeal
		default:
			cmd.UsageErrorf("unknown -durable-sync %q (want always|seal)", *durableSync)
		}
		durable = &segfile.Options{
			Dir:     filepath.Join(*dataDir, "engine"),
			Sync:    mode,
			ODirect: *odirect,
		}
	}

	ts := telemetry.New(telemetry.Options{})
	eng, err := prototype.NewSharded(prototype.ShardedConfig{
		Engine: prototype.EngineConfig{
			Store:       cfg,
			ServiceTime: time.Duration(*serviceUS) * time.Microsecond,
			Telemetry:   ts,
			Durable:     durable,
		},
		Shards:        *shards,
		PolicyFactory: harness.PolicyFactory(*policy),
	})
	cmd.Check(err)
	var srv *server.Server
	var ctl *gcsched.Controller
	if *gcBG {
		gcfg := gcsched.Config{
			Interval:   time.Duration(*gcIntervalUS) * time.Microsecond,
			SliceUnits: *gcSliceUnits,
			QueueFill:  eng.QueueFill,
			Telemetry:  ts,
		}
		if *trace && *gcTargetUS > 0 {
			gcfg.TargetP999 = time.Duration(*gcTargetUS) * time.Microsecond
			// srv is assigned below, before ctl.Start spawns the only
			// reader of this closure.
			gcfg.P999 = func() time.Duration { return srv.TailP999() }
		}
		shards := eng.GCShards()
		sh := make([]gcsched.Shard, len(shards))
		for i, s := range shards {
			sh[i] = s
		}
		ctl, err = gcsched.New(gcfg, sh)
		cmd.Check(err)
	}
	volDir := ""
	if *dataDir != "" {
		volDir = filepath.Join(*dataDir, "volumes")
	}
	srv, err = server.New(server.Config{
		Engine:       eng,
		Volumes:      *volumes,
		DataDir:      volDir,
		MaxInflight:  *maxInflight,
		Batch:        *batch,
		BatchTimeout: time.Duration(*batchUS) * time.Microsecond,
		Telemetry:    ts,
		Trace: server.TraceConfig{
			Enabled:   *trace,
			Threshold: time.Duration(*traceThreshUS) * time.Microsecond,
		},
		GCSched: ctl,
	})
	cmd.Check(err)
	if ctl != nil {
		ctl.Start()
	}

	if *telAddr != "" {
		var extra map[string]http.Handler
		if *trace {
			extra = map[string]http.Handler{"/debug/trace": srv.TraceHandler()}
		}
		_, taddr, err := telemetry.Serve(*telAddr, ts, extra)
		cmd.Check(err)
		fmt.Printf("telemetry on http://%s/ (metrics, events.jsonl, series.jsonl, debug/trace, debug/pprof)\n", taddr)
	}

	var nsrv *nbd.Server
	nbdDone := make(chan error, 1)
	if *nbdAddr != "" {
		nsrv, err = nbd.New(nbd.Config{
			Backend:         srv,
			MaxRequestBytes: *nbdMaxReqKiB << 10,
			Telemetry:       ts,
		})
		cmd.Check(err)
		nln, err := net.Listen("tcp", *nbdAddr)
		cmd.Check(err)
		go func() { nbdDone <- nsrv.Serve(nln) }()
		fmt.Printf("nbd: %d exports (vol0..vol%d) on %s\n", srv.Volumes(), srv.Volumes()-1, nln.Addr())
	} else {
		close(nbdDone)
	}

	ln, err := net.Listen("tcp", *addr)
	cmd.Check(err)
	gcMode := "sync"
	if *gcBG {
		gcMode = "background"
	}
	fmt.Printf("serving %d volumes × %d blocks (%s policy, %d shards, batch=%v, gc=%s) on %s\n",
		srv.Volumes(), srv.VolumeBlocks(), *policy, eng.Shards(), *batch, gcMode, ln.Addr())
	if *dataDir != "" {
		if ds, ok := eng.DurableStats(); ok && eng.Recovered() {
			fmt.Printf("durable: recovered %d segments (%d live blocks) from %s\n",
				ds.RecoveredSegments, ds.RecoveredBlocks, *dataDir)
		} else {
			fmt.Printf("durable: fresh log in %s (sync=%s, odirect=%v)\n", *dataDir, *durableSync, *odirect)
		}
	}

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigCh
		fmt.Println("draining...")
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		// The NBD frontend drains first: its in-flight ops need a
		// backend that is still admitting, so the volume manager must
		// not start refusing Acquire until NBD connections are gone.
		if nsrv != nil {
			if err := nsrv.Shutdown(ctx); err != nil {
				fmt.Fprintln(os.Stderr, "adaptserve: nbd shutdown:", err)
			}
		}
		if err := srv.Shutdown(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "adaptserve: shutdown:", err)
		}
	}()

	cmd.Check(srv.Serve(ln))
	cmd.Check(<-nbdDone)
	if ctl != nil {
		ctl.Stop()
	}
	cmd.Check(eng.Close())
	st := eng.Stats()
	fmt.Printf("final: %d user blocks, WA %.3f, effective WA %.3f, %d padded chunks of %d flushed\n",
		st.UserBlocks, st.WA, st.EffectiveWA, st.PaddedChunks, st.ChunkFlushes)
}
