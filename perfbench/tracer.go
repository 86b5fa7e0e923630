package main

import (
	"sync"
	"sync/atomic"
	"time"

	"adapt/internal/adaptcore"
	"adapt/internal/lss"
	"adapt/internal/prototype"
	"adapt/internal/server"
	"adapt/internal/sim"
	"adapt/internal/telemetry"
)

// tracer records spans around the calls into three layers of the
// program, from wrappers installed only in the traced run:
//
//   - server: a server.VolumeBackend between the NBD frontend and the
//     volume server. Its NewSpan hands the frontend a span that the
//     frontend stamps with the client's request handle, which is how
//     every backend call is tied to the client request that caused it.
//   - engine: a prototype.Ingest between the volume server and the
//     sharded engine, calling the engine's Timed variants for lock and
//     device-queue waits. An engine call is tied to the request whose
//     backend call has its first block in flight.
//   - placement: an lss.Policy around ADAPT, timing every placement.
//
// Everything is kept in memory and joined with the client's own
// records after the measured phase.
type tracer struct {
	on atomic.Bool

	mu     sync.Mutex
	reqs   map[uint64]*reqTrace // by client request handle
	blocks map[int64]*reqTrace  // global LBA → request whose backend call has it in flight
	acq    [volumes]acqStamp    // last Acquire per volume (one connection per volume)
	eng    []engSpan

	backWrites int64 // WriteBlocks calls

	placeUserN, placeUserNS atomic.Int64
	placeGCN, placeGCNS     atomic.Int64
}

type acqStamp struct{ start, end int64 }

// reqTrace is the server- and engine-side record of one client request.
type reqTrace struct {
	start   int64 // first backend call (Acquire) start
	acqNS   int64 // Acquire wait
	backNS  int64 // time inside ReadBlocks/WriteBlocks/Flush (call → done)
	backEnd int64 // the last backend call returned or acked
	reply   int64 // the frontend wrote the reply (FinishSpan)

	engNS, lockNS, sinkNS int64
	engIdx                int // last engine span charged to it (-1: none)
}

// engSpan is one call into the engine. enter/locked/done are on the
// engine clock; wallNS is the call as the wrapper timed it.
type engSpan struct {
	shard               int
	write               bool
	enter, locked, done int64
	sinkNS, wallNS      int64
}

func newTracer() *tracer {
	return &tracer{reqs: make(map[uint64]*reqTrace), blocks: make(map[int64]*reqTrace)}
}

// start and stop bracket the measured phase; outside it the wrappers
// pass calls straight through.
func (t *tracer) start() {
	if t != nil {
		t.on.Store(true)
	}
}

func (t *tracer) stop() {
	if t != nil {
		t.on.Store(false)
	}
}

// --- server layer ---

type tracedBackend struct {
	server.VolumeBackend
	t *tracer
}

func (t *tracer) wrapBackend(b server.VolumeBackend) server.VolumeBackend {
	if t == nil {
		return b
	}
	return &tracedBackend{b, t}
}

// NewSpan always returns a span so the frontend stamps the request
// handle on it; the inner server keeps its own tracing off (it is
// passed nil spans), exactly as in the untraced run.
func (b *tracedBackend) NewSpan() *telemetry.Span { return &telemetry.Span{} }

func (b *tracedBackend) FinishSpan(sp *telemetry.Span, _ *telemetry.SpanRing) {
	if sp == nil || !b.t.on.Load() {
		return
	}
	end := now()
	b.t.mu.Lock()
	if r := b.t.reqs[sp.ID]; r != nil {
		r.reply = end
	}
	b.t.mu.Unlock()
}

func (b *tracedBackend) DropSpan(*telemetry.Span)          {}
func (b *tracedBackend) OpenSpanRing() *telemetry.SpanRing { return nil }
func (b *tracedBackend) CloseSpanRing(*telemetry.SpanRing) {}

func (b *tracedBackend) Acquire(vol uint32) error {
	t0 := now()
	err := b.VolumeBackend.Acquire(vol)
	if b.t.on.Load() && vol < volumes {
		b.t.mu.Lock()
		b.t.acq[vol] = acqStamp{t0, now()}
		b.t.mu.Unlock()
	}
	return err
}

// begin opens a backend call for the request stamped on sp and marks
// its blocks in flight.
func (t *tracer) begin(sp *telemetry.Span, vol uint32, lba int64, blocks int) (*reqTrace, int64) {
	if sp == nil || !t.on.Load() || vol >= volumes {
		return nil, 0
	}
	t0 := now()
	t.mu.Lock()
	r := t.reqs[sp.ID]
	if r == nil {
		r = &reqTrace{start: t0, engIdx: -1}
		if a := t.acq[vol]; a.end != 0 {
			r.start, r.acqNS = a.start, a.end-a.start
			t.acq[vol] = acqStamp{}
		}
		t.reqs[sp.ID] = r
	}
	base := int64(vol)*volBlocks + lba
	for i := int64(0); i < int64(blocks); i++ {
		t.blocks[base+i] = r
	}
	t.mu.Unlock()
	return r, t0
}

func (t *tracer) end(r *reqTrace, t0 int64, vol uint32, lba int64, blocks int) {
	if r == nil {
		return
	}
	t1 := now()
	t.mu.Lock()
	r.backNS += t1 - t0
	r.backEnd = max(r.backEnd, t1)
	base := int64(vol)*volBlocks + lba
	for i := int64(0); i < int64(blocks); i++ {
		if t.blocks[base+i] == r {
			delete(t.blocks, base+i)
		}
	}
	t.mu.Unlock()
}

func (b *tracedBackend) ReadBlocks(vol uint32, lba int64, blocks int, sp *telemetry.Span) ([]byte, error) {
	r, t0 := b.t.begin(sp, vol, lba, blocks)
	data, err := b.VolumeBackend.ReadBlocks(vol, lba, blocks, nil)
	b.t.end(r, t0, vol, lba, blocks)
	return data, err
}

func (b *tracedBackend) WriteBlocks(vol uint32, lba int64, payload []byte, sp *telemetry.Span, done func(error)) {
	blocks := len(payload) / blockBytes
	r, t0 := b.t.begin(sp, vol, lba, blocks)
	if r == nil {
		b.VolumeBackend.WriteBlocks(vol, lba, payload, nil, done)
		return
	}
	b.t.mu.Lock()
	b.t.backWrites++
	b.t.mu.Unlock()
	b.VolumeBackend.WriteBlocks(vol, lba, payload, nil, func(err error) {
		b.t.end(r, t0, vol, lba, blocks)
		done(err)
	})
}

func (b *tracedBackend) TrimBlocks(vol uint32, lba int64, blocks int, _ *telemetry.Span) error {
	return b.VolumeBackend.TrimBlocks(vol, lba, blocks, nil)
}

func (b *tracedBackend) Flush(vol uint32, sp *telemetry.Span) error {
	r, t0 := b.t.begin(sp, vol, 0, 0)
	err := b.VolumeBackend.Flush(vol, nil)
	b.t.end(r, t0, vol, 0, 0)
	return err
}

// --- engine layer ---

type tracedEngine struct {
	prototype.Ingest
	t *tracer
}

func (t *tracer) wrapEngine(e prototype.Ingest) prototype.Ingest {
	if t == nil {
		return e
	}
	return &tracedEngine{e, t}
}

// record charges one engine call to the requests owning the first
// block of each of its writes (or of the read).
func (e *tracedEngine) record(tm prototype.OpTiming, w0 int64, write bool, lbas ...int64) {
	wall := now() - w0
	sp := engSpan{
		shard: e.ShardOf(lbas[0]), write: write,
		enter: int64(tm.Enter), locked: int64(tm.Locked), done: int64(tm.Done),
		sinkNS: tm.SinkNS, wallNS: wall,
	}
	t := e.t
	t.mu.Lock()
	idx := len(t.eng)
	t.eng = append(t.eng, sp)
	for _, lba := range lbas {
		if r := t.blocks[lba]; r != nil && r.engIdx != idx {
			r.engNS += wall
			r.lockNS += sp.locked - sp.enter
			r.sinkNS += sp.sinkNS
			r.engIdx = idx
		}
	}
	t.mu.Unlock()
}

func (e *tracedEngine) Write(lba int64, blocks int) error {
	if !e.t.on.Load() {
		return e.Ingest.Write(lba, blocks)
	}
	w0 := now()
	tm, err := e.Ingest.WriteTimed(lba, blocks)
	e.record(tm, w0, true, lba)
	return err
}

func (e *tracedEngine) WriteBatch(ops []prototype.BatchWrite) error {
	if !e.t.on.Load() || len(ops) == 0 {
		return e.Ingest.WriteBatch(ops)
	}
	w0 := now()
	tm, err := e.Ingest.WriteBatchTimed(ops)
	lbas := make([]int64, len(ops))
	for i, op := range ops {
		lbas[i] = op.LBA
	}
	e.record(tm, w0, true, lbas...)
	return err
}

func (e *tracedEngine) Read(lba int64, blocks int) error {
	if !e.t.on.Load() {
		return e.Ingest.Read(lba, blocks)
	}
	w0 := now()
	tm, err := e.Ingest.ReadTimed(lba, blocks)
	e.record(tm, w0, false, lba)
	return err
}

// --- placement layer ---

// tracedPolicy embeds the ADAPT policy, so every optional extension the
// store and engine probe for (Advisor, SegmentObserver, SetTelemetry)
// is still found and placement is unchanged.
type tracedPolicy struct {
	*adaptcore.Policy
	t *tracer
}

func (t *tracer) wrapPolicy(p *adaptcore.Policy) lss.Policy {
	if t == nil {
		return p
	}
	return &tracedPolicy{p, t}
}

func (p *tracedPolicy) PlaceUser(lba int64, at sim.Time, w sim.WriteClock) lss.GroupID {
	if !p.t.on.Load() {
		return p.Policy.PlaceUser(lba, at, w)
	}
	t0 := time.Now()
	g := p.Policy.PlaceUser(lba, at, w)
	p.t.placeUserNS.Add(int64(time.Since(t0)))
	p.t.placeUserN.Add(1)
	return g
}

func (p *tracedPolicy) PlaceGC(lba int64, from lss.GroupID, born, sealed, w sim.WriteClock) lss.GroupID {
	if !p.t.on.Load() {
		return p.Policy.PlaceGC(lba, from, born, sealed, w)
	}
	t0 := time.Now()
	g := p.Policy.PlaceGC(lba, from, born, sealed, w)
	p.t.placeGCNS.Add(int64(time.Since(t0)))
	p.t.placeGCN.Add(1)
	return g
}

func (t *tracer) placeMeans() (user, gc float64) {
	return ratio(float64(t.placeUserNS.Load()), float64(t.placeUserN.Load())),
		ratio(float64(t.placeGCNS.Load()), float64(t.placeGCN.Load()))
}
