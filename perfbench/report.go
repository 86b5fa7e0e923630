package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"time"
)

// nbdRunner runs an NBD workload. A traced run splits its time between
// an untraced phase and a traced one, each on a fresh stack with one
// set-up.
func nbdRunner(name string) runFunc {
	w := nbdWorkloads[name]
	return func(rep *report, seed uint64, dur time.Duration, traced bool) error {
		nsetup := setups
		if traced {
			nsetup, dur = 1, dur/2
		}
		ph, err := runNBDPhase(w, seed, dur, nsetup, nil)
		if err != nil {
			return err
		}
		rep.nbdEndToEnd(name, ph)
		if !traced {
			return nil
		}
		rep.clientTails()
		tr := newTracer()
		tph, err := runNBDPhase(w, seed, dur, 1, tr)
		if err != nil {
			return fmt.Errorf("traced phase: %w", err)
		}
		rep.check(name+" traced", tph)
		rep.nbdLayers(name, ph, tph, tr)
		return nil
	}
}

// clientTails files the untraced phase's tail latencies under the
// client layer of the traced run's report.
func (r *report) clientTails() {
	for _, m := range tailMetrics {
		r.set("client."+m.name, r.values[m.name], r.counts[m.name])
	}
}

// check counts a phase's requests, including the verify reads, and
// its failures.
func (r *report) check(what string, ph *nbdPhase) {
	r.attempted += ph.ops + ph.verifyReads
	r.failed += ph.failed + ph.mismatches
	if ph.failed > 0 {
		r.problem("%s: %d requests failed", what, ph.failed)
	}
	if ph.mismatches > 0 {
		r.problem("%s: %d reads differed from the shadow", what, ph.mismatches)
	}
}

// lat records the p50, p99 and p999 of a sample set under prefix.
func (r *report) lat(prefix string, s samples) {
	n := int64(len(s))
	r.set(prefix+"_p50_us", s.quantile(0.5), n)
	r.set(prefix+"_p99_us", s.quantile(0.99), n)
	r.set(prefix+"_p999_us", s.quantile(0.999), n)
}

func (r *report) nbdEndToEnd(name string, ph *nbdPhase) {
	r.check(name, ph)
	r.set("ops_per_s", float64(ph.ops)/ph.elapsedS, ph.ops)
	r.lat("write", ph.writes)
	r.lat("read", ph.reads)
	var was, pads []float64
	for k := 1; k < len(ph.engWin); k++ {
		a, b := ph.engWin[k], ph.engWin[k-1]
		user, gc := a.UserBlocks-b.UserBlocks, a.GCBlocks-b.GCBlocks
		shadow, pad := a.ShadowBlocks-b.ShadowBlocks, a.PaddingBlocks-b.PaddingBlocks
		was = append(was, ratio(float64(user+gc), float64(user)))
		pads = append(pads, ratio(float64(pad), float64(user+gc+shadow+pad)))
		r.printf("%s: traffic window %d, %.2fs-%.2fs: user=%d gc=%d shadow=%d pad=%d blocks, wa=%.4f padding=%.4f\n",
			name, k, ph.windowS[k-1], ph.windowS[k], user, gc, shadow, pad, was[k-1], pads[k-1])
	}
	r.set("wa", median(was), int64(len(was)))
	r.set("padding_ratio", median(pads), int64(len(pads)))
	r.set("setup_s", median(ph.setupS), int64(len(ph.setupS)))
	r.printf("%s: set-ups %s\n", name, spreadText(ph.setupS))
	r.printf("%s: %d ops in %.2fs (%d writes, %d reads, %d flushes); host speed %.4g around the set-ups\n",
		name, ph.ops, ph.elapsedS, len(ph.writes), len(ph.reads), len(ph.flushes), ph.speed)
}

// joined is one client request with its server- and engine-side spans.
type joined struct {
	cmd                        uint16
	sent, recv                 int64
	rt, acq, back, eng, lock   int64
	sink, queue, nbdSelf, self int64
	out, wake                  int64 // backend done → reply written → client has it
	engIdx                     int
}

// nbdLayers reports the per-layer metrics of a traced phase, with the
// untraced phase ph as the overhead baseline.
func (r *report) nbdLayers(name string, ph, tph *nbdPhase, tr *tracer) {
	var js []joined
	var unjoined int
	for _, o := range tph.clientOps {
		q := tr.reqs[o.handle]
		if q == nil {
			unjoined++
			continue
		}
		j := joined{cmd: o.cmd, sent: o.sent, recv: o.recv, rt: o.recv - o.sent, acq: q.acqNS, back: q.backNS, eng: q.engNS,
			lock: q.lockNS, sink: q.sinkNS, queue: q.start - o.sent, engIdx: q.engIdx,
			out: q.reply - q.backEnd, wake: o.recv - q.reply}
		j.nbdSelf = j.rt - j.acq - j.back
		j.self = j.back - j.eng
		js = append(js, j)
	}
	pick := func(f func(j joined) (int64, bool)) samples {
		var s samples
		for _, j := range js {
			if v, ok := f(j); ok {
				s = append(s, v)
			}
		}
		return s
	}
	all := func(v func(j joined) int64) samples {
		return pick(func(j joined) (int64, bool) { return v(j), j.cmd != cmdFlush })
	}
	of := func(cmd uint16, v func(j joined) int64) samples {
		return pick(func(j joined) (int64, bool) { return v(j), j.cmd == cmd })
	}
	n := func(s samples) int64 { return int64(len(s)) }

	traced := float64(tph.ops) / tph.elapsedS
	base := float64(ph.ops) / ph.elapsedS
	r.set("client.traced_ops_per_s", traced, tph.ops)
	r.set("client.trace_overhead_frac", ratio(base-traced, base), ph.ops)
	r.set("client.flush_p99_us", tph.flushes.quantile(0.99), n(tph.flushes))

	rt := all(func(j joined) int64 { return j.rt })
	nbdSelf := all(func(j joined) int64 { return j.nbdSelf })
	acq := all(func(j joined) int64 { return j.acq })
	srvSelf := all(func(j joined) int64 { return j.self })
	eng := all(func(j joined) int64 { return j.eng })
	r.set("nbd.self_p50_us", nbdSelf.quantile(0.5), n(nbdSelf))
	r.set("nbd.self_p99_us", nbdSelf.quantile(0.99), n(nbdSelf))
	q := all(func(j joined) int64 { return j.queue })
	r.set("nbd.queue_p99_us", q.quantile(0.99), n(q))
	r.set("nbd.rmw_per_write", ratio(float64(tph.rmw), float64(tph.nbdWrites)), tph.nbdWrites)
	r.set("server.acquire_wait_p99_us", acq.quantile(0.99), n(acq))
	sw := of(cmdWrite, func(j joined) int64 { return j.back })
	r.set("server.write_p50_us", sw.quantile(0.5), n(sw))
	r.set("server.write_p99_us", sw.quantile(0.99), n(sw))
	sr := of(cmdRead, func(j joined) int64 { return j.back })
	r.set("server.read_p50_us", sr.quantile(0.5), n(sr))
	sf := of(cmdFlush, func(j joined) int64 { return j.back })
	r.set("server.flush_p99_us", sf.quantile(0.99), n(sf))
	ss := of(cmdWrite, func(j joined) int64 { return j.self })
	r.set("server.write_self_p50_us", ss.quantile(0.5), n(ss))

	var ew, er, lock, sink samples
	for _, e := range tr.eng {
		if e.write {
			ew = append(ew, e.wallNS)
		} else {
			er = append(er, e.wallNS)
		}
		lock = append(lock, e.locked-e.enter)
		sink = append(sink, e.sinkNS)
	}
	r.set("server.writes_per_engine_call", ratio(float64(tr.backWrites), float64(len(ew))), n(ew))
	r.set("engine.write_p50_us", ew.quantile(0.5), n(ew))
	r.set("engine.write_p99_us", ew.quantile(0.99), n(ew))
	r.set("engine.read_p50_us", er.quantile(0.5), n(er))
	r.set("engine.lock_wait_p99_us", lock.quantile(0.99), n(lock))
	r.set("engine.lock_wait_p999_us", lock.quantile(0.999), n(lock))
	r.set("engine.device_wait_p99_us", sink.quantile(0.99), n(sink))
	var maxU, sumU int64
	for _, u := range tph.shardDelta {
		maxU = max(maxU, u)
		sumU += u
	}
	r.set("engine.shard_skew", ratio(float64(maxU)*float64(len(tph.shardDelta)), float64(sumU)), sumU)

	a, b := tph.engEnd, tph.engBefore
	user := a.UserBlocks - b.UserBlocks
	perUser := func(v int64) float64 { return ratio(float64(v), float64(user)) }
	r.set("device.chunks_per_user_block", perUser(a.ChunkFlushes-b.ChunkFlushes+a.ParityChunks-b.ParityChunks), user)
	r.set("lss.gc_cycles", float64(a.GCCycles-b.GCCycles), 1)
	r.set("lss.gc_blocks_per_user_block", perUser(a.GCBlocks-b.GCBlocks), user)
	r.set("lss.padded_chunk_frac", ratio(float64(a.PaddedChunks-b.PaddedChunks), float64(a.ChunkFlushes-b.ChunkFlushes)), a.ChunkFlushes-b.ChunkFlushes)
	r.set("lss.shadow_blocks_per_user_block", perUser(a.ShadowBlocks-b.ShadowBlocks), user)
	pu, pg := tr.placeMeans()
	r.set("placement.place_user_ns_mean", pu, tr.placeUserN.Load())
	r.set("placement.place_gc_ns_mean", pg, tr.placeGCN.Load())
	r.set("adaptcore.shadow_grants", float64(tph.shadowGrants), 1)
	r.set("adaptcore.demotions", float64(tph.demotions), 1)
	r.set("gcsched.slices", float64(tph.gcSlices), 1)
	r.set("gcsched.emergency_runs", float64(a.GCEmergencyRuns-b.GCEmergencyRuns), 1)

	r.runtimeMetrics(tph.rtBefore, tph.rtAfter, tph.ops)

	// Layer budget: the medians of the blocking steps against the
	// client median; what they leave over is reported, not rounded.
	sum := nbdSelf.quantile(0.5) + acq.quantile(0.5) + srvSelf.quantile(0.5) + eng.quantile(0.5)
	r.set("client.unaccounted_p50_us", rt.quantile(0.5)-sum, n(rt))
	r.printf("\n%s traced run: %d requests joined, %d without server spans; %.0f ops/s traced vs %.0f untraced\n",
		name, len(js), unjoined, traced, base)
	r.printf("layer budget (reads+writes, µs)   %10s %10s %10s\n", "p50", "p99", "p999")
	for _, row := range []struct {
		name string
		s    samples
	}{
		{"client round trip", rt},
		{"nbd self (rt - backend)", nbdSelf},
		{"  send → first backend call", q},
		{"  backend done → reply written", all(func(j joined) int64 { return j.out })},
		{"  reply written → client has it", all(func(j joined) int64 { return j.wake })},
		{"server acquire wait", acq},
		{"server self (backend - engine)", srvSelf},
		{"engine call", eng},
		{"  engine lock wait", all(func(j joined) int64 { return j.lock })},
		{"  engine device wait", all(func(j joined) int64 { return j.sink })},
	} {
		r.printf("  %-32s %10.2f %10.2f %10.2f\n", row.name, row.s.quantile(0.5), row.s.quantile(0.99), row.s.quantile(0.999))
	}
	r.printf("  sum of step medians %.2f vs client median %.2f: %.2f µs unaccounted\n",
		sum, rt.quantile(0.5), rt.quantile(0.5)-sum)
	r.tailAttribution(js, tr, gcEnds())
	if path, err := writeSpans(name, js); err == nil {
		r.printf("spans written to %s\n", path)
	} else {
		r.printf("spans not written: %v\n", err)
	}
}

// tailAttribution splits the client time of the slowest 0.1% of writes
// by layer, and splits their engine lock wait into time some traced
// engine call held the shard lock and time nothing traced held it (the
// telemetry ticker, which takes every shard lock each window, or a GC
// pacer slice).
func (r *report) tailAttribution(js []joined, tr *tracer, gcEnds []int64) {
	var w samples
	var gcAll int
	for _, j := range js {
		if j.cmd == cmdWrite {
			w = append(w, j.rt)
			if nearGC(j, gcEnds) {
				gcAll++
			}
		}
	}
	if len(w) == 0 {
		r.set("engine.tail_lock_share", 0, 0)
		r.set("engine.tail_lock_untraced_share", 0, 0)
		r.set("runtime.tail_gc_share", 0, 0)
		return
	}
	cut := int64(w.quantile(0.999) * 1e3)
	holders := make(map[int][]engSpan)
	for _, e := range tr.eng {
		holders[e.shard] = append(holders[e.shard], e)
	}
	for _, hs := range holders {
		sort.Slice(hs, func(a, b int) bool { return hs[a].locked < hs[b].locked })
	}
	var tail []joined
	var gcTail int
	var rt, nbdSelf, acq, self, eng, lock, sink, untraced int64
	for _, j := range js {
		if j.cmd != cmdWrite || j.rt < cut {
			continue
		}
		tail = append(tail, j)
		if nearGC(j, gcEnds) {
			gcTail++
		}
		rt += j.rt
		nbdSelf += j.nbdSelf
		acq += j.acq
		self += j.self
		eng += j.eng
		lock += j.lock
		sink += j.sink
		if j.engIdx < 0 {
			continue
		}
		me := tr.eng[j.engIdx]
		wait := me.locked - me.enter
		covered := int64(0)
		hs := holders[me.shard]
		i := sort.Search(len(hs), func(i int) bool { return hs[i].done > me.enter })
		for ; i < len(hs) && hs[i].locked < me.locked; i++ {
			lo, hi := max(hs[i].locked, me.enter), min(hs[i].done, me.locked)
			if hi > lo {
				covered += hi - lo
			}
		}
		untraced += max(wait-covered, 0)
	}
	r.set("engine.tail_lock_share", ratio(float64(lock), float64(rt)), int64(len(tail)))
	r.set("engine.tail_lock_untraced_share", ratio(float64(untraced), float64(lock)), int64(len(tail)))
	r.set("runtime.tail_gc_share", ratio(float64(gcTail), float64(len(tail))), int64(len(tail)))
	r.printf("Go GC: %d cycles ended during the phase; a mark termination fell inside %.1f%% of tail writes vs %.1f%% of all writes\n",
		len(gcEnds), 100*ratio(float64(gcTail), float64(len(tail))), 100*ratio(float64(gcAll), float64(len(w))))
	k := float64(len(tail)) * 1e3
	r.printf("write tail (>= p999 = %.0f µs, %d writes), mean µs: client %.0f = nbd %.0f + acquire %.0f + server %.0f + engine %.0f (lock %.0f, of which untraced holder %.0f; device %.0f)\n",
		float64(cut)/1e3, len(tail), float64(rt)/k, float64(nbdSelf)/k, float64(acq)/k, float64(self)/k,
		float64(eng)/k, float64(lock)/k, float64(untraced)/k, float64(sink)/k)
}

// nearGC reports whether a Go GC mark termination ended while the
// request was in flight or within 2 ms after it completed: a request
// held up by the concurrent mark phase completes around its end.
func nearGC(j joined, gcEnds []int64) bool {
	i := sort.Search(len(gcEnds), func(i int) bool { return gcEnds[i] >= j.sent })
	return i < len(gcEnds) && gcEnds[i] <= j.recv+int64(2*time.Millisecond)
}

// gcEnds returns the end times of the recent Go GC pauses on the
// benchmark clock, in ascending order.
func gcEnds() []int64 {
	var st debug.GCStats
	debug.ReadGCStats(&st)
	ends := make([]int64, len(st.PauseEnd))
	for i, t := range st.PauseEnd {
		ends[i] = int64(t.Sub(epoch))
	}
	sort.Slice(ends, func(a, b int) bool { return ends[a] < ends[b] })
	return ends
}

// writeSpans writes the joined per-request spans, one line each.
func writeSpans(name string, js []joined) (string, error) {
	path := filepath.Join(scratchDir(), "spans-"+name+".tsv")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	bw := bufio.NewWriter(f)
	fmt.Fprintln(bw, "cmd\trt_ns\tqueue_ns\tacquire_ns\tbackend_ns\tengine_ns\tlock_ns\tdevice_ns")
	for _, j := range js {
		fmt.Fprintf(bw, "%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\n", j.cmd, j.rt, j.queue, j.acq, j.back, j.eng, j.lock, j.sink)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

func (r *report) runtimeMetrics(a, b runtimeSnap, ops int64) {
	r.set("runtime.allocs_per_op", ratio(float64(b.mallocs-a.mallocs), float64(ops)), ops)
	r.set("runtime.alloc_bytes_per_op", ratio(float64(b.allocBytes-a.allocBytes), float64(ops)), ops)
	r.set("runtime.gc_pause_total_ms", float64(b.pauseNS-a.pauseNS)/1e6, 1)
}

// simRunner runs a simulator workload. A traced run repeats the phase
// with the placement wrapper, and both phases must give the reference
// traffic bit for bit.
func simRunner(name string, durable bool) runFunc {
	return func(rep *report, seed uint64, dur time.Duration, traced bool) error {
		nsetup := setups
		if traced {
			nsetup, dur = 1, dur/2
		}
		ph, err := runSimPhase(seed, dur, nsetup, nil, durable)
		if err != nil {
			return err
		}
		rep.simEndToEnd(name, ph)
		if !traced {
			return nil
		}
		tr := newTracer()
		tph, err := runSimPhase(seed, dur, 1, tr, durable)
		if err != nil {
			return fmt.Errorf("traced phase: %w", err)
		}
		rep.simCheck(name+" traced", tph)
		if tph.ref != ph.ref {
			rep.problem("traced run traffic %+v differs from untraced %+v: a wrapper changed placement", tph.ref, ph.ref)
		}
		rep.simLayers(name, ph, tph, tr)
		return nil
	}
}

func (r *report) simEndToEnd(name string, ph *simPhase) {
	r.simCheck(name, ph)
	// The simulator's timing figures are scaled to the reference host
	// speed (see hostSpeed); the raw ones are printed alongside.
	r.set("ops_per_s", ph.scaledRate(), ph.records)
	for k, q := range []string{"_p50_us", "_p99_us", "_p999_us"} {
		r.set("write"+q, ph.median(func(p simPass) float64 { return p.write[k] * p.speed / refSpeed }), ph.passes[0].writeN)
		r.set("read"+q, ph.median(func(p simPass) float64 { return p.read[k] * p.speed / refSpeed }), ph.passes[0].readN)
	}
	r.printf("%s: host speed %.4g loop iterations/s (median over passes; reference %.4g); raw %.0f records/s, write p50 %.4f us, read p50 %.4f us\n",
		name, ph.median(func(p simPass) float64 { return p.speed }), refSpeed, float64(ph.records)/ph.elapsedS,
		ph.median(func(p simPass) float64 { return p.write[0] }), ph.median(func(p simPass) float64 { return p.read[0] }))
	r.set("wa", ph.ref.wa(), ph.ref.user)
	r.set("padding_ratio", ph.ref.padding(), ph.ref.user+ph.ref.gc+ph.ref.shadow+ph.ref.pad)
	r.set("setup_s", median(ph.genS), int64(len(ph.genS)))
	r.printf("%s: set-ups (scaled) %s\n", name, spreadText(ph.genS))
	r.printf("%s: %d volumes, %d passes, %d records in %.2fs; reference pass %.3fs; traffic %+v\n",
		name, simVolumes, len(ph.passes), ph.records, ph.elapsedS, ph.replayS, ph.ref)
	r.printf("%s: wa=%.17g padding_ratio=%.17g\n", name, ph.ref.wa(), ph.ref.padding())
	if d := ph.dur; d.writeRecords > 0 {
		r.printf("%s: durable, per pass: %d fsyncs, %d bytes written, %d segments recovered in %.3fs (median over passes), every volume's recovered mapping equal to the live store's\n",
			name, d.fsyncs, d.bytes, d.recoveredSegments, ph.median(func(p simPass) float64 { return p.recoverS }))
	}
}

// simLayers reports the per-layer metrics of a traced simulator phase,
// with the untraced phase ph as the overhead baseline.
func (r *report) simLayers(name string, ph, tph *simPhase, tr *tracer) {
	base := float64(ph.records) / ph.elapsedS
	tops := float64(tph.records) / tph.elapsedS
	r.clientTails()
	r.set("client.traced_ops_per_s", tops, tph.records)
	r.set("client.trace_overhead_frac", ratio(base-tops, base), ph.records)
	t := tph.ref
	r.set("device.chunks_per_user_block", ratio(float64(t.chunks), float64(t.user)), t.user)
	r.set("lss.gc_cycles", float64(t.gcCycles), 1)
	r.set("lss.padded_chunk_frac", ratio(float64(t.paddedChunks), float64(t.chunks)), t.chunks)
	r.set("lss.gc_blocks_per_user_block", ratio(float64(t.gc), float64(t.user)), t.user)
	r.set("lss.shadow_blocks_per_user_block", ratio(float64(t.shadow), float64(t.user)), t.user)
	r.set("lss.replay_s", tph.replayS, 1)
	pu, pg := tr.placeMeans()
	r.set("placement.place_user_ns_mean", pu, tr.placeUserN.Load())
	r.set("placement.place_gc_ns_mean", pg, tr.placeGCN.Load())
	r.set("adaptcore.shadow_grants", float64(t.shadowGrants), 1)
	r.set("adaptcore.demotions", float64(t.demotions), 1)
	r.set("workload.gen_s", median(tph.genS), int64(len(tph.genS)))
	if d := tph.dur; d.writeRecords > 0 {
		// The last traced pass; MemFS makes an fsync a copy of the
		// file's unsynced bytes, so fsync latency here is CPU cost.
		p99 := make([]float64, len(d.fsyncP99NS))
		for i, v := range d.fsyncP99NS {
			p99[i] = float64(v) / 1e3
		}
		r.set("segfile.fsyncs_per_kwrite", ratio(float64(d.fsyncs)*1000, float64(d.writeRecords)), d.writeRecords)
		r.set("segfile.bytes_per_user_byte", ratio(float64(d.bytes), float64(d.userBytes)), d.userBytes)
		r.set("segfile.fsync_p99_us", median(p99), d.fsyncs)
		r.set("segfile.recovered_segments", float64(d.recoveredSegments), int64(len(d.fsyncP99NS)))
		r.set("segfile.recover_s", tph.median(func(p simPass) float64 { return p.recoverS }), int64(len(tph.passes)))
	}
	r.runtimeMetrics(tph.rtBefore, tph.rtAfter, tph.records)
	r.printf("%s traced: %.0f records/s traced vs %.0f untraced; traffic identical: %v\n",
		name, tops, base, tph.ref == ph.ref)
}

func (r *report) simCheck(what string, ph *simPhase) {
	r.attempted += ph.records
	r.failed += ph.failed
	if ph.failed > 0 {
		r.problem("%s: %d records rejected by the store", what, ph.failed)
	}
	if ph.mismatch != "" {
		r.failed++
		r.problem("%s: replay is not deterministic: %s", what, ph.mismatch)
	}
}
