package main

import (
	"fmt"
	"runtime"
	"time"

	"adapt/internal/adaptcore"
	"adapt/internal/checker"
	"adapt/internal/harness"
	"adapt/internal/lss"
	"adapt/internal/segfile"
	"adapt/internal/sim"
	"adapt/internal/trace"
	"adapt/internal/workload"
)

// simVolumes sizes the synthesized Ali suite: the small scale's volume
// geometry, with enough volumes that the suite's WA moves little from
// one seed to the next.
const simVolumes = 24

// simTraffic is the array traffic of one replay of the suite.
type simTraffic struct {
	user, gc, shadow, pad   int64
	gcCycles                int64
	chunks, paddedChunks    int64
	shadowGrants, demotions int64
}

func (s simTraffic) wa() float64 { return ratio(float64(s.user+s.gc), float64(s.user)) }

func (s simTraffic) padding() float64 {
	return ratio(float64(s.pad), float64(s.user+s.gc+s.shadow+s.pad))
}

// simPhase is what one simulator phase produced. Per-record
// latencies are summarized per pass, and a run reports the median over
// its passes.
type simPhase struct {
	genS     []float64 // suite generation, scaled to refSpeed
	ref      simTraffic
	replayS  float64
	passes   []simPass
	records  int64
	elapsedS float64 // the timed replays alone
	rtBefore runtimeSnap
	rtAfter  runtimeSnap
	failed   int64
	mismatch string // first pass that disagreed with the reference
	dur      durableTotals
}

// simPass is one timed replay of the suite: its length, the host's
// speed around it (hostSpeed is timed between volumes, and each
// volume's replay weighted by the mean of the readings around it), its
// per-record latency quantiles in µs, and (durable) how long the
// suite's recovery took.
type simPass struct {
	seconds, speed float64
	write, read    [3]float64 // p50, p99, p999
	writeN, readN  int64
	recoverS       float64
}

// durableTotals sums the segment stores of one durable pass over the
// suite's volumes.
type durableTotals struct {
	fsyncs, bytes           int64
	fsyncP99NS              []int64 // per volume
	recoveredSegments       int64
	userBytes, writeRecords int64
}

// scaledRate is records per second at refSpeed: each pass's time is
// scaled by the host speed measured around it.
func (ph *simPhase) scaledRate() float64 {
	var t float64
	for _, p := range ph.passes {
		t += p.seconds * p.speed / refSpeed
	}
	return ratio(float64(ph.records), t)
}

var passQuantiles = [3]float64{0.5, 0.99, 0.999}

// median over passes of one pass figure.
func (ph *simPhase) median(f func(p simPass) float64) float64 {
	v := make([]float64, len(ph.passes))
	for i, p := range ph.passes {
		v[i] = f(p)
	}
	return median(v)
}

// simSuite synthesizes the seeded Ali suite.
func simSuite(seed uint64) []workload.Volume {
	sc := harness.SmallScale()
	sc.Volumes = simVolumes
	sc.Seed = seed
	return sc.Suite(workload.ProfileAli)
}

// newSimStore builds one volume's store under ADAPT + Greedy, exactly as
// harness.RunTrace does. With fs set the store persists through a
// segment store on it, sealing with an fsync as adaptserve's default
// -durable-sync seal does.
func newSimStore(v workload.Volume, tr *tracer, fs *segfile.MemFS) (*lss.Store, *adaptcore.Policy, *segfile.Store, error) {
	cfg := harness.StoreConfig(v.FootprintBlocks, lss.Greedy)
	p, err := harness.BuildPolicy(harness.PolicyADAPT, cfg)
	if err != nil {
		return nil, nil, nil, err
	}
	ap := p.(*adaptcore.Policy)
	if fs == nil {
		return lss.New(cfg, tr.wrapPolicy(ap)), ap, nil, nil
	}
	sf, err := segfile.Open(durableOptions(cfg, fs))
	if err != nil {
		return nil, nil, nil, err
	}
	return lss.New(cfg, tr.wrapPolicy(ap), lss.Deps{Durable: sf}), ap, sf, nil
}

func durableOptions(cfg lss.Config, fs *segfile.MemFS) segfile.Options {
	return segfile.Options{FS: fs, Sync: segfile.SyncOnSeal, Geometry: cfg.GeometryDefaults()}
}

// recoverSim closes a durable volume's segment store, reopens it on
// the same in-memory files and rolls the log forward into a new store,
// which must map every block where the live store had it. It returns
// the time the reopen and roll-forward took.
func recoverSim(st *lss.Store, sf *segfile.Store, fs *segfile.MemFS, d *durableTotals) (time.Duration, error) {
	if err := st.DurableErr(); err != nil {
		return 0, err
	}
	want := checker.ExpectedRecovery(st)
	if err := sf.Close(); err != nil {
		return 0, err
	}
	s := sf.Stats()
	d.fsyncs += s.Fsyncs
	d.bytes += s.BytesWritten
	d.fsyncP99NS = append(d.fsyncP99NS, s.FsyncP99NS)
	cfg := st.Config()
	p, err := harness.BuildPolicy(harness.PolicyADAPT, cfg)
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	sf2, err := segfile.Open(durableOptions(cfg, fs))
	if err != nil {
		return 0, err
	}
	rec, rs, err := sf2.Recover(cfg, p)
	took := time.Since(t0)
	if err != nil {
		return 0, err
	}
	d.recoveredSegments += int64(rs.Segments)
	if err := checker.CompareRecovered(rec, want); err != nil {
		return 0, err
	}
	return took, sf2.Close()
}

func addTraffic(s *simTraffic, st *lss.Store, p *adaptcore.Policy) {
	m := st.Metrics()
	s.user += m.UserBlocks
	s.gc += m.GCBlocks
	s.shadow += m.ShadowBlocks
	s.pad += m.PaddingBlocks
	s.gcCycles += m.GCCycles
	for _, g := range m.PerGroup {
		s.chunks += g.ChunkFlushes
		s.paddedChunks += g.PaddingEvents
	}
	s.shadowGrants += p.ShadowGrants()
	s.demotions += p.Demotions()
}

// runSimPhase generates the suite (nsetup times), replays it once with
// trace.Replay as the reference, then replays it with every record
// timed until dur has passed, in a single goroutine. Every timed pass
// must reproduce the reference traffic exactly. With durable set the
// timed passes persist each volume through a segment store on an
// in-memory filesystem, and after each volume's replay its log is
// recovered and checked against the live store.
func runSimPhase(seed uint64, dur time.Duration, nsetup int, tr *tracer, durable bool) (*simPhase, error) {
	ph := &simPhase{}
	suite := simSuite(seed)
	var traces []*trace.Trace
	speed := hostSpeed()
	for k := 0; k < nsetup; k++ {
		traces = nil
		runtime.GC() // the previous generation's garbage is not this one's cost
		t0 := time.Now()
		traces = make([]*trace.Trace, len(suite))
		for i, v := range suite {
			traces[i] = v.Generate()
		}
		secs := time.Since(t0).Seconds()
		after := hostSpeed()
		ph.genS = append(ph.genS, secs*(speed+after)/2/refSpeed)
		speed = after
	}

	tr.start()
	defer tr.stop()
	ph.rtBefore = readRuntime()
	t0 := time.Now()
	for i, v := range suite {
		st, p, _, err := newSimStore(v, tr, nil)
		if err != nil {
			return nil, err
		}
		if err := trace.Replay(st, traces[i]); err != nil {
			return nil, err
		}
		addTraffic(&ph.ref, st, p)
	}
	ph.replayS = time.Since(t0).Seconds()

	deadline := time.Now().Add(dur - time.Since(t0))
	var writes, reads samples
	for len(ph.passes) == 0 || time.Now().Before(deadline) {
		var got simTraffic
		var records int64
		var replay, recovery time.Duration
		var weighted float64 // replay seconds × host speed around them
		ph.dur = durableTotals{}
		writes, reads = writes[:0], reads[:0]
		before := hostSpeed()
		for i, v := range suite {
			var fs *segfile.MemFS
			if durable {
				fs = segfile.NewMemFS()
			}
			v0 := time.Now()
			st, p, sf, err := newSimStore(v, tr, fs)
			if err != nil {
				return nil, err
			}
			ph.failed += replayTimed(st, traces[i], &writes, &reads)
			took := time.Since(v0)
			after := hostSpeed()
			replay += took
			weighted += took.Seconds() * (before + after) / 2
			addTraffic(&got, st, p)
			records += int64(len(traces[i].Records))
			if durable {
				took, err := recoverSim(st, sf, fs, &ph.dur)
				if err != nil {
					return nil, fmt.Errorf("volume %d: %w", i, err)
				}
				recovery += took
				ph.dur.userBytes += st.Metrics().UserBlocks * int64(st.Config().BlockSize)
				after = hostSpeed()
			}
			before = after
		}
		if durable {
			ph.dur.writeRecords = int64(len(writes))
		}
		pass := simPass{seconds: replay.Seconds(), writeN: int64(len(writes)), readN: int64(len(reads)), recoverS: recovery.Seconds()}
		pass.speed = weighted / pass.seconds
		ph.elapsedS += pass.seconds
		for k, q := range passQuantiles {
			pass.write[k] = writes.quantile(q)
			pass.read[k] = reads.quantile(q)
		}
		ph.passes = append(ph.passes, pass)
		ph.records += records
		if got != ph.ref && ph.mismatch == "" {
			ph.mismatch = fmt.Sprintf("pass %d traffic %+v, trace.Replay gave %+v", len(ph.passes), got, ph.ref)
		}
	}
	ph.rtAfter = readRuntime()
	return ph, nil
}

// refSpeed is hostSpeed's typical value on a 2-CPU Xeon VM; scaled
// figures are quoted at that speed.
const refSpeed = 35e6

// hostSpeed times a fixed loop of arithmetic, map and slice updates
// that runs none of the program's code, in iterations per second
// (about 2 ms). The simulator runs in one goroutine and its speed
// follows the host's: on a 2-CPU Xeon VM the same passes ran 20% faster
// or slower from one minute to the next, and this loop, timed between
// the volumes of a pass, moved with them. The loop allocates nothing,
// so garbage the replay left behind does not slow it through GC assists
// and hide an allocation regression.
func hostSpeed() float64 {
	const n = 100_000
	m, s := speedMap, speedSlice
	t0 := time.Now()
	x := uint64(1)
	for i := 0; i < n; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		m[x&0xfff] += x
		s[x>>48] ^= x
	}
	speedSink += x + uint64(len(m)) + s[x>>48]
	return n / time.Since(t0).Seconds()
}

// hostSpeed's working set, allocated once with every key present.
var (
	speedMap = func() map[uint64]uint64 {
		m := make(map[uint64]uint64, 1<<12)
		for k := uint64(0); k < 1<<12; k++ {
			m[k] = 0
		}
		return m
	}()
	speedSlice = make([]uint64, 1<<16)
	// speedSink keeps the compiler from dropping hostSpeed's loop.
	speedSink uint64
)

// replayTimed is trace.Replay with every record timed: the same store
// calls in the same order, so the traffic must match the reference.
// It returns the number of records the store rejected.
func replayTimed(st *lss.Store, t *trace.Trace, writes, reads *samples) (failed int64) {
	bs := int64(st.Config().BlockSize)
	prev := now()
	for i := range t.Records {
		r := &t.Records[i]
		blocks := int((r.Size + bs - 1) / bs)
		if blocks < 1 {
			blocks = 1
		}
		if r.Op == trace.OpRead {
			st.Read(r.Offset/bs, blocks, r.Time)
		} else if st.Write(r.Offset/bs, blocks, r.Time) != nil {
			failed++
		}
		at := now()
		if r.Op == trace.OpRead {
			*reads = append(*reads, at-prev)
		} else {
			*writes = append(*writes, at-prev)
		}
		prev = at
	}
	st.Drain(st.Now() + sim.Second)
	return failed
}
