package main

import (
	"fmt"

	"ocb/internal/disk"
	"ocb/internal/workload"
)

// metricDef names one metric. The end-to-end ones carry the direction in
// which they are better and the bound by which they may worsen; -compare and
// BENCHMARK.json use the same table.
type metricDef struct {
	name, unit string
	// better is "lower", "higher" or "equal". An equal metric is a count
	// that a seed fixes: it must not move either way.
	better string
	// rel is the share of the old median by which the metric may worsen,
	// abs an absolute allowance beside it.
	rel, abs float64
	// gated reports that BENCHMARK.json lists the metric as end-to-end: it
	// is measured, and never 0, on every workload. The others are kept in
	// the result record and compared by -compare, but a workload on which a
	// metric is 0 or absent cannot carry a bound that is a share of it.
	gated bool
}

// endToEnd are the metrics a user of the benchmark sees. The bounds of the
// timed ones are set by what the 2-CPU sandbox repeats, not by what one would
// like to detect: on traverse-paged, which is bound by memory latency, ten
// runs of one commit spread (Q3-Q1)/median = 0.05 to 0.09 in ops_per_s and
// p50_us, on engine-flatmem up to 0.17 in p99_us, and the medians of two sets
// of ten drift apart by as much within the hour. A bound below the spread
// rejects unchanged code.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", rel: 0.25, gated: true},
	{name: "ops_per_s", unit: "ops/s", better: "higher", rel: 0.20, gated: true},
	{name: "mean_us", unit: "us", better: "lower", rel: 0.20, gated: true},
	{name: "p50_us", unit: "us", better: "lower", rel: 0.24, gated: true},
	{name: "p99_us", unit: "us", better: "lower", rel: 0.24, gated: true},
	{name: "heap_mb", unit: "MB", better: "lower", rel: 0.05, gated: true},
	{name: "ios_per_op", unit: "ios/op", better: "lower", rel: 0.01},
	{name: "objects_per_op", unit: "objects/op", better: "equal", rel: 0.001},
	{name: "error_rate", unit: "frac", better: "lower"},
	{name: "allocs_per_op", unit: "allocs/op", better: "lower", rel: 0.02, abs: 0.05},
	{name: "disk_bytes_per_object", unit: "bytes/object", better: "lower", rel: 0.10},
}

// value is one measured number with its unit, as the driver reads it.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func perOp(total float64, o *outcome) float64 {
	if o.res.Executed == 0 {
		return 0
	}
	return total / float64(o.res.Executed)
}

// endToEndOf computes every end-to-end metric of an untraced repetition.
// disk_bytes_per_object is absent, not 0, on a store that keeps no files.
func endToEndOf(o *outcome) map[string]float64 {
	res := o.res
	overSlices := func(f func(*workload.Result) float64) float64 {
		v := make([]float64, len(o.slices))
		for i, part := range o.slices {
			v[i] = f(part)
		}
		return trimmedMean(v)
	}
	m := map[string]float64{
		"setup_s":        median(o.setupS),
		"ops_per_s":      overSlices(func(r *workload.Result) float64 { return r.Throughput }),
		"mean_us":        overSlices(func(r *workload.Result) float64 { return r.Total.Response.Mean() }),
		"p50_us":         overSlices((*workload.Result).P50),
		"p99_us":         overSlices((*workload.Result).P99),
		"heap_mb":        o.heapMB,
		"ios_per_op":     res.MeanIOsPerOp(),
		"objects_per_op": perOp(float64(res.Total.ObjectsTotal), o),
		"error_rate":     res.ErrorRate(),
		"allocs_per_op":  perOp(float64(o.mallocs), o),
	}
	if o.dirBytes > 0 && o.liveObjects > 0 {
		m["disk_bytes_per_object"] = float64(o.dirBytes) / float64(o.liveObjects)
	}
	return m
}

// layerDef names one per-layer metric. The prefix of a name is the module the
// number belongs to.
type layerDef struct{ name, unit string }

// layerMetrics lists every per-layer metric, in the order they are printed.
var layerMetrics = func() []layerDef {
	l := []layerDef{
		{"workload.self_ns_per_op", "ns"},
		{"workload.step_ns", "ns"},
		{"workload.ios_per_op", "ios/op"},
		{"workload.objects_per_op", "objects/op"},
		{"workload.allocs_per_op", "allocs/op"},
		{"workload.error_rate", "frac"},
		{"workload.sched_p50_us", "us"},
		{"workload.sched_p99_us", "us"},
		{"workload.late_frac", "frac"},
		{"workload.achieved_rate_frac", "frac"},
		{"stats.sample_add_ns", "ns"},
		{"stats.welford_add_ns", "ns"},
		{"stats.quantile_us", "us"},
		{"core.generate_s", "s"},
		{"core.self_us_per_op", "us"},
		{"core.share", "frac"},
	}
	for _, m := range methodNames {
		l = append(l, layerDef{"backend." + m + "_calls_per_op", "calls/op"}, layerDef{"backend." + m + "_ns", "ns"})
	}
	return append(l, []layerDef{
		{"backend.commit_p99_us", "us"},
		{"backend.share", "frac"},
		{"backend.trace_overhead_frac", "frac"},
		{"store.objects_per_op", "objects/op"},
		{"store.pages", "count"},
		{"store.access_hit_ns", "ns"},
		{"store.access_miss_ns", "ns"},
		{"store.access_batch_ns_per_oid", "ns"},
		{"store.ranger_rebuild_us", "us"},
		{"buffer.hit_ratio", "frac"},
		{"buffer.misses_per_op", "count/op"},
		{"buffer.evictions_per_op", "count/op"},
		{"buffer.get_hit_ns", "ns"},
		{"buffer.get_miss_ns", "ns"},
		{"buffer.objcache_probe_ns", "ns"},
		{"buffer.objcache_add_evict_ns", "ns"},
		{"disk.reads_per_op", "ios/op"},
		{"disk.writes_per_op", "ios/op"},
		{"disk.clustering_ios", "count"},
		{"disk.read_ns", "ns"},
		{"waldisk.cache_hit_ratio", "frac"},
		{"waldisk.preads_per_op", "ios/op"},
		{"waldisk.writes_per_commit", "ios/commit"},
		{"waldisk.compact_batches", "count"},
		{"waldisk.compact_reads", "count"},
		{"waldisk.segments", "count"},
		{"waldisk.dir_bytes", "bytes"},
		{"waldisk.disk_bytes_per_object", "bytes/object"},
		{"waldisk.reopen_ms", "ms"},
		{"waldisk.fsync_probe_us", "us"},
		{"wire.encode_ns", "ns"},
		{"wire.decode_ns", "ns"},
		{"wire.batch_encode_ns_per_oid", "ns"},
		{"wire.service_ns", "ns"},
		{"wire.frames_per_op", "frames/op"},
		{"remote.rtt_ns", "ns"},
		{"remote.net_ns", "ns"},
		{"remote.calls_per_op", "calls/op"},
		{"remote.share", "frac"},
		{"btree.scan_ns", "ns"},
		{"btree.seek_ns", "ns"},
		{"btree.delete_ns", "ns"},
	}...)
}()

// clocks splits the wall clock of a traced repetition's clients. The engine
// reads the store's disk counters before and after each operation, outside
// the operation's own timing, so those calls are the engine's time, not the
// operation's.
type clocks struct {
	wallNs     float64 // measured phase x clients
	responseNs float64 // inside operations, by the engine's clock
	inOpNs     float64 // inside the store during operations, by the tracer's
	statsNs    float64 // inside the store's DiskStats, between operations
}

func clocksOf(o *outcome) clocks {
	c := clocks{
		wallNs:     float64(o.res.Duration.Nanoseconds()) * float64(o.res.Clients),
		responseNs: o.res.Total.Response.Sum() * 1e3,
		statsNs:    float64(o.client.ns[mDiskStats]),
	}
	c.inOpNs = float64(o.client.totalNs()) - c.statsNs
	return c
}

// layersOf computes the per-layer metrics that come from a traced repetition
// and its counters. untracedOps is ops_per_s of the untraced repetition of
// the same workload and seed. A layer the workload never enters reads 0.
func layersOf(o *outcome, untracedOps float64) map[string]float64 {
	res := o.res
	e2e := endToEndOf(o)
	c := clocksOf(o)
	after := res.Backend
	diskDelta := res.DiskDelta
	hits := float64(after.Pool.Hits - o.before.Pool.Hits)
	misses := float64(after.Pool.Misses - o.before.Pool.Misses)
	evictions := float64(after.Pool.Evictions - o.before.Pool.Evictions)
	hitRatio := 0.0
	if hits+misses > 0 {
		hitRatio = hits / (hits + misses)
	}

	m := map[string]float64{
		"workload.self_ns_per_op":     perOp(c.wallNs-c.responseNs, o),
		"workload.ios_per_op":         e2e["ios_per_op"],
		"workload.objects_per_op":     e2e["objects_per_op"],
		"workload.allocs_per_op":      e2e["allocs_per_op"],
		"workload.error_rate":         e2e["error_rate"],
		"core.generate_s":             o.generate.Seconds(),
		"core.self_us_per_op":         perOp(c.responseNs-c.inOpNs, o) / 1e3,
		"core.share":                  (c.responseNs - c.inOpNs) / c.responseNs,
		"backend.commit_p99_us":       o.client.commitP99us,
		"backend.share":               c.inOpNs / c.responseNs,
		"backend.trace_overhead_frac": 1 - e2e["ops_per_s"]/untracedOps,
		"store.objects_per_op":        perOp(float64(after.ObjectsAccessed-o.before.ObjectsAccessed), o),
		"store.pages":                 float64(after.Pages),
		"buffer.hit_ratio":            hitRatio,
		"buffer.misses_per_op":        perOp(misses, o),
		"buffer.evictions_per_op":     perOp(evictions, o),
		"disk.reads_per_op":           perOp(float64(diskDelta.TotalReads()), o),
		"disk.writes_per_op":          perOp(float64(diskDelta.TotalWrites()), o),
		"disk.clustering_ios":         float64(diskDelta.ClusteringIOs()),
	}
	for i, name := range methodNames {
		m["backend."+name+"_calls_per_op"] = perOp(float64(o.client.calls[i]), o)
		m["backend."+name+"_ns"] = o.client.meanNs(method(i))
	}
	if o.dirBytes > 0 {
		m["waldisk.cache_hit_ratio"] = hitRatio
		m["waldisk.preads_per_op"] = perOp(float64(diskDelta.TotalReads()), o)
		// Below 1, group commit put several clients' commits in one write.
		m["waldisk.writes_per_commit"] = float64(diskDelta.Writes[disk.Transaction]) / float64(o.client.calls[mCommit])
		m["waldisk.compact_batches"] = float64(diskDelta.Writes[disk.Clustering])
		m["waldisk.compact_reads"] = float64(diskDelta.Reads[disk.Clustering])
		m["waldisk.segments"] = float64(o.segments)
		m["waldisk.dir_bytes"] = float64(o.dirBytes)
		m["waldisk.disk_bytes_per_object"] = e2e["disk_bytes_per_object"]
		m["waldisk.reopen_ms"] = o.reopen.Seconds() * 1e3
	}
	if o.host != nil {
		calls, hostCalls := float64(o.client.totalCalls()), float64(o.host.totalCalls())
		rtt := (c.inOpNs + c.statsNs) / calls
		service := float64(o.host.totalNs()) / hostCalls
		m["wire.service_ns"] = service
		m["wire.frames_per_op"] = perOp(hostCalls, o)
		m["remote.rtt_ns"] = rtt
		// What a round trip costs beyond the hosted store's own work:
		// system calls, loopback, encoding, decoding, the connection pool.
		m["remote.net_ns"] = rtt - service
		m["remote.calls_per_op"] = perOp(calls, o)
		// The share of the clients' wall clock spent in round trips, the
		// engine's two DiskStats calls per operation included.
		m["remote.share"] = (c.inOpNs + c.statsNs) / c.wallNs
	}
	return m
}

// reconcile checks a traced repetition's time accounting. The engine's
// clock times operations, the tracer's clock times the calls into the store;
// the engine's own time, core's own time and the store's time add up to the
// clients' wall clock by definition, so what can go wrong is that a part
// comes out negative: a span counted twice, or counted in the wrong part.
func reconcile(o *outcome) check {
	c := clocksOf(o)
	engine := c.wallNs - c.responseNs - c.statsNs
	coreSelf := c.responseNs - c.inOpNs
	ck := check{Name: "engine, core and backend time reconcile with wall clock x clients"}
	if tolerance := 0.05 * c.wallNs; engine < -tolerance || coreSelf < -tolerance {
		ck.Detail = fmt.Sprintf("of %.0f ns: engine %.0f, core %.0f, backend %.0f in operations and %.0f between them",
			c.wallNs, engine, coreSelf, c.inOpNs, c.statsNs)
		return ck
	}
	ck.OK = true
	return ck
}

// totals are the counts of a repetition that another must agree with.
type totals struct{ operations, objects int64 }

func totalsOf(o *outcome) totals {
	return totals{o.res.Executed, o.res.Total.ObjectsTotal}
}

// sameObjects checks that tracing did not change what a single client did.
func sameObjects(traced, untraced totals) check {
	ck := check{Name: "traced and untraced runs access the same objects"}
	if ck.OK = traced.objects == untraced.objects && traced.operations == untraced.operations; !ck.OK {
		ck.Detail = fmt.Sprintf("%d objects in %d operations traced, %d in %d untraced",
			traced.objects, traced.operations, untraced.objects, untraced.operations)
	}
	return ck
}
