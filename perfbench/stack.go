package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"time"

	"adapt/internal/adaptcore"
	"adapt/internal/gcsched"
	"adapt/internal/harness"
	"adapt/internal/lss"
	"adapt/internal/nbd"
	"adapt/internal/prototype"
	"adapt/internal/server"
	"adapt/internal/telemetry"
)

// Serving-stack geometry: cmd/adaptserve's defaults.
const (
	volumes    = 8
	userBlocks = 64 << 10
	blockBytes = 4096
	volBlocks  = userBlocks / volumes
	volBytes   = volBlocks * blockBytes
)

// deviceTime is the modelled device service time per chunk. It is set
// explicitly because EngineConfig maps a zero or negative value to
// 50 µs; 1 ns measures the program rather than the model's sleeps.
const deviceTime = time.Nanosecond

// stackConfig selects the variations the workloads need.
type stackConfig struct {
	bgGC bool    // background GC paced by gcsched, as adaptserve -gc-bg
	tr   *tracer // layer wrappers for the traced run (nil: none)
}

// stack is the in-process serving stack built the way cmd/adaptserve
// builds it: a sharded engine with ADAPT + Greedy, the volume server
// with group commit and telemetry, and the NBD frontend on loopback.
// The program's own request tracing (/debug/trace) stays off.
type stack struct {
	ts    *telemetry.Set
	eng   *prototype.Sharded
	ctl   *gcsched.Controller
	srv   *server.Server
	nsrv  *nbd.Server
	addr  string
	done  chan error
	pols  []*adaptcore.Policy
	ready bool // the NBD listener is serving
}

func newStack(cfg stackConfig) (st *stack, err error) {
	st = &stack{ts: telemetry.New(telemetry.Options{}), done: make(chan error, 1)}
	defer func() {
		if err != nil {
			st.close()
			st = nil
		}
	}()
	scfg := harness.StoreConfig(userBlocks, lss.Greedy)
	scfg.BackgroundGC = cfg.bgGC
	st.eng, err = prototype.NewSharded(prototype.ShardedConfig{
		Engine: prototype.EngineConfig{
			Store:       scfg,
			ServiceTime: deviceTime,
			Telemetry:   st.ts,
			Fill:        true,
		},
		PolicyFactory: func(_ int, c lss.Config) (lss.Policy, error) {
			p, err := harness.BuildPolicy(harness.PolicyADAPT, c)
			if err != nil {
				return nil, err
			}
			ap, ok := p.(*adaptcore.Policy)
			if !ok {
				return nil, fmt.Errorf("policy %T is not ADAPT", p)
			}
			st.pols = append(st.pols, ap)
			return cfg.tr.wrapPolicy(ap), nil
		},
	})
	if err != nil {
		return st, err
	}
	if cfg.bgGC {
		shards := st.eng.GCShards()
		sh := make([]gcsched.Shard, len(shards))
		for i, s := range shards {
			sh[i] = s
		}
		st.ctl, err = gcsched.New(gcsched.Config{QueueFill: st.eng.QueueFill, Telemetry: st.ts}, sh)
		if err != nil {
			return st, err
		}
	}
	st.srv, err = server.New(server.Config{
		Engine:      cfg.tr.wrapEngine(st.eng),
		Volumes:     volumes,
		MaxInflight: 64,
		Batch:       true,
		Telemetry:   st.ts,
		GCSched:     st.ctl,
	})
	if err != nil {
		return st, err
	}
	if st.ctl != nil {
		st.ctl.Start()
	}
	st.nsrv, err = nbd.New(nbd.Config{Backend: cfg.tr.wrapBackend(st.srv), Telemetry: st.ts})
	if err != nil {
		return st, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return st, err
	}
	st.addr = ln.Addr().String()
	st.ready = true
	go func() { st.done <- st.nsrv.Serve(ln) }()
	return st, nil
}

// counter reads a telemetry counter by name (0 when absent).
func (st *stack) counter(name string) int64 {
	for _, in := range st.ts.Registry.Scalars() {
		if in.Name() == name {
			return in.Load()
		}
	}
	return 0
}

// close drains the stack in adaptserve's order: NBD first, then the
// volume server, the GC pacer, and the engine.
func (st *stack) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	var errs []error
	if st.ready {
		errs = append(errs, st.nsrv.Shutdown(ctx), <-st.done)
		st.ready = false
	}
	if st.srv != nil {
		errs = append(errs, st.srv.Shutdown(ctx))
	}
	if st.ctl != nil {
		st.ctl.Stop()
	}
	if st.eng != nil {
		errs = append(errs, st.eng.Close())
	}
	return errors.Join(errs...)
}
