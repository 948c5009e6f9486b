package main

import (
	"fmt"
	"slices"

	"lshjoin/internal/core"
)

// layerDefs are the per-layer metrics a traced run reports, each a span or
// count around a call into the named module's exported API. A layer the
// workload never calls reports 0.
var layerDefs = []struct{ name, unit, better string }{
	{"core.stratum_ms", "ms", "lower"},
	{"core.sample_ms", "ms", "lower"},
	{"core.draws_l", "count", "lower"},
	{"core.reliable_ratio", "ratio", "higher"},
	{"core.hit_ratio_h", "ratio", "higher"},
	{"lshjoin.capture_ms", "ms", "lower"},
	{"shardrpc.snapshot_ms", "ms", "lower"},
	{"shardrpc.notmod_ratio", "ratio", "higher"},
	{"shardrpc.bytes_per_op", "B", "lower"},
	{"shardrpc.ingest_ms", "ms", "lower"},
	{"persist.decode_ms", "ms", "lower"},
	{"lsh.group_ms", "ms", "lower"},
	{"lsh.search_ms", "ms", "lower"},
	{"lsh.search_yield", "ratio", "higher"},
	{"lsh.insert_us", "us", "lower"},
	{"lsh.publish_us", "us", "lower"},
	{"persist.open_s", "s", "lower"},
	{"persist.ckpt_decode_s", "s", "lower"},
	{"persist.checkpoints", "count", "lower"},
	{"persist.checkpoint_ms", "ms", "lower"},
	{"faultfs.syncs_per_insert", "count", "lower"},
	{"faultfs.sync_us", "us", "lower"},
	{"faultfs.write_bytes_per_insert", "B", "lower"},
	{"runtime.alloc_kb_per_op", "KiB", "lower"},
	{"runtime.gc_cpu_frac", "ratio", "lower"},
	{"trace.est_overhead_ms", "ms", "lower"},
	{"trace.search_overhead_ms", "ms", "lower"},
	{"trace.insert_overhead_ms", "ms", "lower"},
}

// traceResult is what a traced replay measured.
type traceResult struct {
	spans      []span
	classes    map[string]*opClass // traced op latencies
	values     map[string]float64  // per-layer metrics; absent means 0
	mismatches []string
	attempted  int
	failed     int

	details []core.Detail   // every LSH-SS estimate's internals
	mH      []int           // and its m_H
	rt      runtimeCounters // runtime counters summed over the loop's blocks
}

func newTrace() *traceResult {
	t := &traceResult{classes: map[string]*opClass{}, values: map[string]float64{}}
	for _, c := range classNames {
		t.classes[c] = &opClass{}
	}
	return t
}

// replayer runs one logged op through the layers, under span parent.
type replayer func(o opRec, parent, op int32) (ests []float64, ids []int, err error)

// replayLog replays every op of the untraced run in order, requiring each
// answer to match bit for bit. blockStart and blockEnd run at the bounds of
// every block of the measured loop, where the workload reads its counters.
func replayLog(pub *runResult, rec *recorder, tr *traceResult, do replayer, blockStart, blockEnd func()) {
	starts, ends := map[int]bool{}, map[int]bool{}
	for _, b := range pub.blocks {
		starts[b.lo], ends[b.hi] = true, true
	}
	var rt0 runtimeCounters
	end := func() {
		rt := readRuntime()
		tr.rt.allocBytes += rt.allocBytes - rt0.allocBytes
		tr.rt.gcCPU += rt.gcCPU - rt0.gcCPU
		tr.rt.totalCPU += rt.totalCPU - rt0.totalCPU
		blockEnd()
	}
	for i, o := range pub.log {
		if ends[i] {
			end()
		}
		if starts[i] {
			rt0 = readRuntime()
			blockStart()
		}
		if o.dropped {
			continue
		}
		sp := rec.begin("op."+o.kind, -1, int32(i))
		ests, ids, err := do(o, sp, int32(i))
		d := rec.end(sp)
		tr.attempted++
		switch {
		case err != nil:
			tr.failed++
			tr.mismatches = append(tr.mismatches, fmt.Sprintf("op %d (%s): replay failed: %v", i, o.kind, err))
		case !sameFloats(ests, o.ests) || !slices.Equal(ids, o.ids):
			tr.mismatches = append(tr.mismatches, fmt.Sprintf("op %d (%s): replay answered %v %v, public API %v %v", i, o.kind, ests, short(ids), o.ests, short(o.ids)))
		}
		if c := tr.classes[o.kind]; c != nil && !o.warm && err == nil {
			c.lat = append(c.lat, float64(d)/1e6)
		}
	}
	if ends[len(pub.log)] {
		end()
	}
	tr.values["runtime.alloc_kb_per_op"] = float64(tr.rt.allocBytes) / 1024 / float64(max(pub.loopOps, 1))
	if tr.rt.totalCPU > 0 {
		tr.values["runtime.gc_cpu_frac"] = tr.rt.gcCPU / tr.rt.totalCPU
	}
	rec.mu.Lock()
	tr.spans = append([]span(nil), rec.spans...)
	rec.mu.Unlock()
}

// addDetail keeps the internals of a measured (not warm-up) estimate.
func (tr *traceResult) addDetail(o opRec, d core.Detail, mH int) {
	if !o.warm {
		tr.details, tr.mH = append(tr.details, d), append(tr.mH, mH)
	}
}

func short(ids []int) []int {
	if len(ids) > 8 {
		return ids[:8]
	}
	return ids
}

// finish derives the span- and estimator-based metrics. Spans of warm-up
// and set-up-only ops are left out, so a mean is over the ops the run
// measured.
func (tr *traceResult) finish(pub *runResult) {
	var kept []span
	remap := make(map[int32]int32)
	for i, s := range tr.spans {
		if s.op >= 0 && (pub.log[s.op].warm || pub.log[s.op].kind == "preload") {
			continue
		}
		remap[int32(i)] = int32(len(kept))
		kept = append(kept, s)
	}
	for i := range kept {
		if p, ok := remap[kept[i].parent]; ok {
			kept[i].parent = p
		} else {
			kept[i].parent = -1
		}
	}
	agg := aggregate(kept)
	set := func(name string, v float64) {
		if v != 0 {
			tr.values[name] = v
		}
	}
	set("core.stratum_ms", meanMs(agg, "core.stratum", false))
	set("core.sample_ms", meanMs(agg, "core.sample", false))
	set("lshjoin.capture_ms", meanMs(agg, "lshjoin.capture", true))
	set("shardrpc.snapshot_ms", meanMs(agg, "shardrpc.snapshot", false))
	set("shardrpc.ingest_ms", meanMs(agg, "shardrpc.ingest", false))
	set("persist.decode_ms", meanMs(agg, "persist.decode", false))
	set("lsh.group_ms", meanMs(agg, "lsh.group", false))
	set("lsh.search_ms", meanMs(agg, "lsh.search", false))
	set("lsh.insert_us", 1000*meanMs(agg, "lsh.insert", false))
	set("lsh.publish_us", 1000*meanMs(agg, "lsh.publish", true))
	if n := len(tr.details); n > 0 {
		var draws, reliable, hit float64
		for i, d := range tr.details {
			draws += float64(d.TakenL)
			if d.ReliableL {
				reliable++
			}
			hit += float64(d.HitsH) / float64(tr.mH[i])
		}
		set("core.draws_l", draws/float64(n))
		set("core.reliable_ratio", reliable/float64(n))
		set("core.hit_ratio_h", hit/float64(n))
	}
	for _, c := range classNames {
		traced, untraced := tr.classes[c].lat, pub.classes[c].lat
		if len(traced) > 0 && len(untraced) > 0 {
			tp, _ := percentile(traced, 0.5)
			up, _ := percentile(untraced, 0.5)
			set("trace."+c+"_overhead_ms", tp-up)
		}
	}
}

// layerMetrics lists every per-layer metric in layerDefs order.
func (tr *traceResult) layerMetrics() []metric {
	out := make([]metric, 0, len(layerDefs))
	for _, d := range layerDefs {
		out = append(out, metric{name: d.name, unit: d.unit, value: tr.values[d.name]})
	}
	return out
}
