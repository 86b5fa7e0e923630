package main

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"sync"
	"time"

	"adapt/internal/adaptcore"
	"adapt/internal/prototype"
	"adapt/internal/telemetry"
)

// setups is how many times a run builds its stack; setup_s is their
// median, and the last build serves the measured phase.
const setups = 15

// nbdWorkload is one traffic mix driven over loopback NBD at vol0 and
// vol1, one connection each.
type nbdWorkload struct {
	bgGC bool // background GC paced by gcsched, as adaptserve -gc-bg
	// The phase's array traffic (wa, padding_ratio) is the median over
	// windows consecutive windows of window writes per connection,
	// the first opening after warmup writes per connection.
	warmup, window, windows int
	// drive runs the measured phase until deadline, and past it until
	// the last window has closed.
	drive func(conns []*connState, seed uint64, deadline int64, win *window) error
}

var nbdWorkloads = map[string]nbdWorkload{
	"nbd-qd1-mixed": {window: 100_000, windows: 1, drive: driveQD1Mixed},
	"nbd-qd8-rmw":   {bgGC: true, warmup: 250_000, window: 25_000, windows: 8, drive: driveQD8RMW},
}

// connState is one client connection with its shadow of the volume.
// Ops in flight on one connection never overlap, so the shadow is
// exact: every read must equal it, and every acked write updates it.
type connState struct {
	c  *nbdClient
	wg sync.WaitGroup

	// mu orders the sender, the reply reader and the phase's
	// bookkeeping; cond wakes a sender waiting out an overlap.
	mu       sync.Mutex
	cond     *sync.Cond
	shadow   []byte
	keep     bool // record every op for the traced-run join
	inflight []*nbdOp
	sem      chan struct{} // the closed loop's queue-depth tokens

	writes, reads, flushes samples
	failed, mismatches     int64
	writeBytes             int64
	ops                    []opRecord
}

// opRecord is a completed op kept for the traced-run join.
type opRecord struct {
	handle     uint64
	cmd        uint16
	sent, recv int64
}

func newConnState(addr string, vol int, shadow []byte, keep bool) (*connState, error) {
	cs := &connState{shadow: shadow, keep: keep}
	cs.cond = sync.NewCond(&cs.mu)
	c, err := dialNBD(addr, fmt.Sprintf("vol%d", vol), uint64(vol+1), cs.onReply)
	if err != nil {
		return nil, err
	}
	if c.size != volBytes {
		c.close()
		return nil, fmt.Errorf("export vol%d is %d bytes, want %d", vol, c.size, volBytes)
	}
	cs.c = c
	return cs, nil
}

// onReply runs on the connection's reader goroutine.
func (cs *connState) onReply(op *nbdOp) {
	cs.mu.Lock()
	lat := op.recv - op.sent
	switch {
	case op.errno != 0:
		cs.failed++
	case op.cmd == cmdWrite:
		copy(cs.shadow[op.off:], op.data)
		cs.writes = append(cs.writes, lat)
		cs.writeBytes += int64(op.length)
	case op.cmd == cmdRead:
		if !bytes.Equal(op.data, cs.shadow[op.off:op.off+uint64(op.length)]) {
			cs.mismatches++
		}
		cs.reads = append(cs.reads, lat)
	case op.cmd == cmdFlush:
		cs.flushes = append(cs.flushes, lat)
	}
	if cs.keep {
		cs.ops = append(cs.ops, opRecord{op.handle, op.cmd, op.sent, op.recv})
	}
	if op.cmd != cmdFlush {
		for i, o := range cs.inflight {
			if o == op {
				cs.inflight[i] = cs.inflight[len(cs.inflight)-1]
				cs.inflight = cs.inflight[:len(cs.inflight)-1]
				break
			}
		}
		cs.cond.Broadcast()
	}
	sem := cs.sem
	cs.mu.Unlock()
	if sem != nil {
		<-sem
	}
	cs.wg.Done()
}

// take hands over the samples and records collected so far and stops
// keeping op records.
func (cs *connState) take() (writes, reads, flushes samples, ops []opRecord, writeBytes int64) {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	writes, reads, flushes, ops, writeBytes = cs.writes, cs.reads, cs.flushes, cs.ops, cs.writeBytes
	cs.writes, cs.reads, cs.flushes, cs.ops, cs.writeBytes, cs.keep = nil, nil, nil, nil, 0, false
	return
}

func (cs *connState) failures() (failed, mismatches int64) {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	return cs.failed, cs.mismatches
}

// issue waits until op overlaps nothing in flight, then sends it.
func (cs *connState) issue(op *nbdOp) error {
	cs.mu.Lock()
	if op.cmd != cmdFlush {
		end := op.off + uint64(op.length)
		for overlaps(cs.inflight, op.off, end) {
			cs.cond.Wait()
		}
		cs.inflight = append(cs.inflight, op)
	}
	cs.mu.Unlock()
	cs.wg.Add(1)
	return cs.c.send(op)
}

func overlaps(ops []*nbdOp, off, end uint64) bool {
	for _, o := range ops {
		if off < o.off+uint64(o.length) && o.off < end {
			return true
		}
	}
	return false
}

// window is the fixed span of traffic over which a phase measures the
// array's write and padding amplification. Each connection drains at
// every barrier in at (a count of its writes, ascending); mark(k) runs
// once every connection has sent at[k] writes and had them all acked,
// so the figures cover the same requests however fast the host runs.
type window struct {
	at   []int
	mark func(k int)
}

// closedLoop runs one sender per connection keeping qd requests in
// flight until next returns nil or the deadline passes (0: none), and
// in any case until the last barrier of win (if any) has passed; then
// it waits for every reply.
func closedLoop(conns []*connState, qd int, deadline int64, win *window, next func(ci int) *nbdOp) error {
	errs := make([]error, len(conns))
	var wg sync.WaitGroup
	var at []int
	var arrived []sync.WaitGroup
	var release []chan struct{}
	if win != nil {
		at = win.at
		arrived = make([]sync.WaitGroup, len(at))
		release = make([]chan struct{}, len(at))
		for k := range at {
			arrived[k].Add(len(conns))
			release[k] = make(chan struct{})
		}
		go func() {
			for k := range at {
				arrived[k].Wait()
				win.mark(k)
				close(release[k])
			}
		}()
	}
	for i, cs := range conns {
		sem := make(chan struct{}, qd)
		cs.mu.Lock()
		cs.sem = sem
		cs.mu.Unlock()
		wg.Add(1)
		go func(i int, cs *connState) {
			defer wg.Done()
			writes, k := 0, 0 // k: the next barrier
			defer func() {
				for ; k < len(at); k++ { // ended early: let the barriers pass anyway
					arrived[k].Done()
				}
			}()
			for k < len(at) || deadline == 0 || now() < deadline {
				op := next(i)
				if op == nil {
					break
				}
				sem <- struct{}{}
				if err := cs.issue(op); err != nil {
					errs[i] = err
					return
				}
				if k < len(at) && op.cmd == cmdWrite {
					if writes++; writes == at[k] {
						cs.wg.Wait()
						arrived[k].Done()
						<-release[k]
						k++
					}
				}
			}
			cs.wg.Wait()
		}(i, cs)
	}
	wg.Wait()
	if len(at) > 0 {
		<-release[len(at)-1]
	}
	for _, cs := range conns {
		cs.mu.Lock()
		cs.sem = nil
		cs.mu.Unlock()
	}
	return errors.Join(errs...)
}

// payloadPool is the seeded byte source write payloads are cut from;
// each write takes a slice at a random offset, so two writes to one
// block almost never carry the same bytes.
type payloadPool []byte

const poolSpan = 1 << 20

func newPayloadPool(rng *rand.Rand) payloadPool {
	p := make([]byte, poolSpan+64<<10)
	for i := 0; i+8 <= len(p); i += 8 {
		v := rng.Uint64()
		for j := 0; j < 8; j++ {
			p[i+j] = byte(v >> (8 * j))
		}
	}
	return p
}

func (p payloadPool) cut(rng *rand.Rand, n int) []byte {
	o := rng.IntN(poolSpan)
	return p[o : o+n]
}

// zipf is the YCSB zipfian generator (Gray et al.) over [0, n) with
// ranks scattered by an odd-multiplier bijection (n a power of two),
// so hot blocks spread over the volume instead of clustering at 0. The
// bijection does not depend on the seed: ADAPT samples blocks by LBA,
// so letting the seed move the hot set would make WA a property of the
// seed rather than of the program.
type zipf struct {
	n                       uint64
	alpha, zetan, eta, half float64
	rng                     *rand.Rand
}

func newZipf(rng *rand.Rand, n uint64, theta float64) *zipf {
	if n&(n-1) != 0 {
		panic("zipf: n must be a power of two")
	}
	zeta := func(m uint64) float64 {
		s := 0.0
		for i := uint64(1); i <= m; i++ {
			s += 1 / math.Pow(float64(i), theta)
		}
		return s
	}
	z := &zipf{n: n, alpha: 1 / (1 - theta), zetan: zeta(n), rng: rng}
	z.eta = (1 - math.Pow(2/float64(n), 1-theta)) / (1 - zeta(2)/z.zetan)
	z.half = 1 + math.Pow(0.5, theta)
	return z
}

func (z *zipf) next() uint64 {
	u := z.rng.Float64()
	uz := u * z.zetan
	var r uint64
	switch {
	case uz < 1:
		r = 0
	case uz < z.half:
		r = 1
	default:
		r = uint64(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
		if r >= z.n {
			r = z.n - 1
		}
	}
	return (r * 0x9E3779B97F4A7C15) & (z.n - 1)
}

// driveQD1Mixed: closed loop, one request in flight per connection,
// 70% aligned 4 KiB writes and 30% 4 KiB reads, zipfian θ=0.99.
func driveQD1Mixed(conns []*connState, seed uint64, deadline int64, win *window) error {
	type gen struct {
		rng  *rand.Rand
		z    *zipf
		pool payloadPool
	}
	gens := make([]gen, len(conns))
	for i := range gens {
		rng := rand.New(rand.NewPCG(seed, uint64(i)))
		gens[i] = gen{rng, newZipf(rng, volBlocks, 0.99), newPayloadPool(rng)}
	}
	return closedLoop(conns, 1, deadline, win, func(ci int) *nbdOp {
		g := &gens[ci]
		off := g.z.next() * blockBytes
		if g.rng.Float64() < 0.7 {
			return &nbdOp{cmd: cmdWrite, off: off, length: blockBytes, data: g.pool.cut(g.rng, blockBytes)}
		}
		return &nbdOp{cmd: cmdRead, off: off, length: blockBytes}
	})
}

// driveQD8RMW: closed loop, 8 requests in flight per connection; 90%
// 4 KiB writes and 10% 4 KiB reads, zipfian θ=0.99 as on QD1, half of
// each unaligned (a write then takes the read-modify-write path), and
// a FLUSH as every 64th op.
func driveQD8RMW(conns []*connState, seed uint64, deadline int64, win *window) error {
	type gen struct {
		rng  *rand.Rand
		z    *zipf
		pool payloadPool
		n    int
	}
	gens := make([]gen, len(conns))
	for i := range gens {
		rng := rand.New(rand.NewPCG(seed, 200+uint64(i)))
		gens[i] = gen{rng: rng, z: newZipf(rng, volBlocks, 0.99), pool: newPayloadPool(rng)}
	}
	return closedLoop(conns, 8, deadline, win, func(ci int) *nbdOp {
		g := &gens[ci]
		g.n++
		if g.n%64 == 0 {
			return &nbdOp{cmd: cmdFlush}
		}
		off := g.z.next() * blockBytes
		if g.rng.IntN(2) == 0 && off+blockBytes < volBytes {
			off += 1 + g.rng.Uint64N(blockBytes-1)
		}
		if g.rng.Float64() < 0.1 {
			return &nbdOp{cmd: cmdRead, off: off, length: blockBytes}
		}
		return &nbdOp{cmd: cmdWrite, off: off, length: blockBytes, data: g.pool.cut(g.rng, blockBytes)}
	})
}

// verifyAll reads both volumes end to end and compares every byte with
// the shadows (mismatches land in connState.mismatches).
func verifyAll(conns []*connState) error {
	const reqBytes = 64 << 10
	pos := make([]uint64, len(conns))
	return closedLoop(conns, 4, 0, nil, func(ci int) *nbdOp {
		if pos[ci] >= volBytes {
			return nil
		}
		op := &nbdOp{cmd: cmdRead, off: pos[ci], length: reqBytes}
		pos[ci] += reqBytes
		return op
	})
}

// nbdPhase is everything one measured phase produced.
type nbdPhase struct {
	setupS                  []float64
	speed                   float64 // hostSpeed around the set-ups
	elapsedS                float64
	windowS                 []float64 // when each window opened or closed
	writes, reads, flushes  samples
	ops, verifyReads        int64
	failed, mismatches      int64
	writeBytes              int64
	engBefore, engEnd       prototype.EngineStats
	engWin                  []prototype.EngineStats // as each window opened or closed
	shardDelta              []int64                 // user blocks per shard in the phase
	gcSlices                int64
	rmw, nbdWrites          int64
	rtBefore, rtAfter       runtimeSnap
	shadowGrants, demotions int64 // over the stack's life, fill included
	clientOps               []opRecord
}

// runNBDPhase builds the stack (nsetup times), runs the measured phase,
// verifies every byte, and tears down. With tr set the layer wrappers
// are installed and every op is kept for the join.
func runNBDPhase(w nbdWorkload, seed uint64, dur time.Duration, nsetup int, tr *tracer) (*nbdPhase, error) {
	ph := &nbdPhase{speed: hostSpeed()}
	shadows := [][]byte{make([]byte, volBytes), make([]byte, volBytes)}
	var st *stack
	var conns []*connState
	closeAll := func() error {
		var errs []error
		for _, cs := range conns {
			errs = append(errs, cs.c.close())
		}
		conns = nil
		if st != nil {
			errs = append(errs, st.close())
			st = nil
		}
		return errors.Join(errs...)
	}
	defer closeAll()
	for k := 0; k < nsetup; k++ {
		// The previous set-up's garbage is not this one's cost.
		runtime.GC()
		t0 := time.Now()
		var err error
		if st, err = newStack(stackConfig{bgGC: w.bgGC, tr: tr}); err != nil {
			return nil, fmt.Errorf("stack: %w", err)
		}
		for v := 0; v < 2; v++ {
			cs, err := newConnState(st.addr, v, shadows[v], tr != nil)
			if err != nil {
				return nil, err
			}
			conns = append(conns, cs)
		}
		ph.setupS = append(ph.setupS, time.Since(t0).Seconds())
		if k < nsetup-1 {
			if err := closeAll(); err != nil {
				return nil, err
			}
		}
	}
	ph.speed = (ph.speed + hostSpeed()) / 2
	pols := st.pols

	// Measured phase.
	ph.snapshot(st, true)
	tr.start()
	start := now()
	win := &window{mark: func(int) {
		ph.engWin = append(ph.engWin, st.eng.Stats())
		ph.windowS = append(ph.windowS, float64(now()-start)/1e9)
	}}
	if w.warmup > 0 {
		win.at = append(win.at, w.warmup)
	} else {
		ph.engWin, ph.windowS = append(ph.engWin, ph.engBefore), append(ph.windowS, 0)
	}
	for k := 1; k <= w.windows; k++ {
		win.at = append(win.at, w.warmup+k*w.window)
	}
	if err := w.drive(conns, seed, start+int64(dur), win); err != nil {
		return nil, fmt.Errorf("measured phase: %w", err)
	}
	ph.elapsedS = float64(now()-start) / 1e9
	tr.stop()
	ph.snapshot(st, false)
	for _, cs := range conns {
		writes, reads, flushes, ops, wb := cs.take()
		ph.ops += int64(len(writes) + len(reads) + len(flushes))
		ph.writes = append(ph.writes, writes...)
		ph.reads = append(ph.reads, reads...)
		ph.flushes = append(ph.flushes, flushes...)
		ph.writeBytes += wb
		ph.clientOps = append(ph.clientOps, ops...)
	}

	if err := verifyAll(conns); err != nil {
		return nil, fmt.Errorf("verify: %w", err)
	}
	for _, cs := range conns {
		_, reads, _, _, _ := cs.take()
		ph.verifyReads += int64(len(reads))
		f, m := cs.failures()
		ph.failed += f
		ph.mismatches += m
	}
	if err := closeAll(); err != nil {
		return nil, err
	}
	ph.shadowGrants, ph.demotions = policyCounts(pols)
	return ph, nil
}

// policyCounts sums ADAPT's shadow grants and demotions over the
// shards, over the stack's whole life. Call it after the engine is
// closed: the counters are plain fields the shards write under their
// own locks.
func policyCounts(pols []*adaptcore.Policy) (grants, demotions int64) {
	for _, p := range pols {
		grants += p.ShadowGrants()
		demotions += p.Demotions()
	}
	return grants, demotions
}

// snapshot records the engine, pacer, frontend and runtime counters at
// a phase boundary.
func (ph *nbdPhase) snapshot(st *stack, before bool) {
	eng := st.eng.Stats()
	rt := readRuntime()
	rmw := st.counter(telemetry.MetricNBDRMWWrites)
	writes := st.counter(telemetry.MetricNBDRequestsPrefix + `{cmd="write"}`)
	shards := st.eng.ShardStats()
	if before {
		ph.engBefore, ph.rtBefore = eng, rt
		if st.ctl != nil {
			ph.gcSlices = st.ctl.Stats().Slices
		}
		ph.rmw, ph.nbdWrites = -rmw, -writes
		ph.shardDelta = make([]int64, len(shards))
		for i, s := range shards {
			ph.shardDelta[i] = -s.UserBlocks
		}
		return
	}
	ph.engEnd, ph.rtAfter = eng, rt
	ph.rmw += rmw
	ph.nbdWrites += writes
	for i, s := range shards {
		ph.shardDelta[i] += s.UserBlocks
	}
	if st.ctl != nil {
		ph.gcSlices = st.ctl.Stats().Slices - ph.gcSlices
	}
}
