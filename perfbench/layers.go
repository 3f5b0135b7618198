package main

import (
	"time"

	"repro/internal/server"
)

// layerMetrics computes the per-layer metrics of a -trace 1 run: from the
// server run's per-response stats and /stats deltas, and from one untraced
// and one traced replay of a pass through the assembled stack. It returns the
// rendered self-time report and the traced replay's spans.
func layerMetrics(all map[string]metric, w *workload, in *instance, res *runResult, st0, st1 server.DatasetStats) (string, *spanLog, error) {
	reads := float64(max(len(res.samples), 1))
	var selfs []time.Duration
	var handler, fetch, proc, size, sqls, trips, tuples, dist, abandoned, rows float64
	for _, s := range res.samples {
		q, p := s.stats.QueryTimeMs, s.stats.ProcessTimeMs
		selfs = append(selfs, s.lat-time.Duration((q+p)*float64(time.Millisecond)))
		handler += ms(s.lat)
		fetch += q
		proc += p
		size += float64(s.size)
		sqls += float64(s.stats.SQLQueries)
		trips += float64(s.stats.Requests)
		tuples += float64(s.stats.TuplesEvaluated)
		dist += float64(s.stats.DistCalls)
		abandoned += float64(s.stats.DistAbandoned)
		rows += float64(s.stats.RowsScanned)
	}
	sortDurations(selfs)
	all["server.self_ms"] = metric{ms(quantile(selfs, 0.5)), "ms"}
	hits, misses := st1.Cache.Hits-st0.Cache.Hits, st1.Cache.Misses-st0.Cache.Misses
	all["server.cache_hit_ratio"] = metric{ratio(float64(hits), float64(hits+misses)), "ratio"}
	all["server.resp_kb_per_req"] = metric{size / 1024 / reads, "kB"}
	all["server.shed"] = metric{float64(st1.Coalesce.Shed - st0.Coalesce.Shed), "count"}
	all["zexec.fetch_ms"] = metric{fetch / reads, "ms"}
	all["zexec.process_ms"] = metric{proc / reads, "ms"}
	all["zexec.sql_per_req"] = metric{sqls / reads, "count"}
	all["zexec.requests_per_req"] = metric{trips / reads, "count"}
	all["zexec.tuples_per_req"] = metric{tuples / reads, "count"}
	all["vis.dist_calls_per_req"] = metric{dist / reads, "count"}
	all["vis.abandon_ratio"] = metric{ratio(abandoned, dist), "ratio"}

	untraced, err := replay(w, in.path, false)
	if err != nil {
		return "", nil, err
	}
	traced, err := replay(w, in.path, true)
	if err != nil {
		return "", nil, err
	}
	n := float64(len(traced.walls))
	db := traced.db
	// Each append swaps in a new store and coalescer whose counters restart,
	// so with a writer the batch and scan figures come from the replay and
	// the per-response stats instead of /stats deltas.
	if len(res.appends) == 0 {
		all["server.coalesce_ratio"] = metric{ratio(float64(st1.Coalesce.Coalesced-st0.Coalesce.Coalesced), float64(st1.Coalesce.Submissions-st0.Coalesce.Submissions)), "ratio"}
		all["server.batches_per_req"] = metric{float64(st1.Coalesce.Batches-st0.Coalesce.Batches) / reads, "count"}
		all["engine.rows_scanned_per_req"] = metric{float64(st1.RowsScanned-st0.RowsScanned) / reads, "count"}
	} else {
		all["server.coalesce_ratio"] = metric{0, "ratio"}
		all["server.batches_per_req"] = metric{float64(db.batches) / n, "count"}
		all["engine.rows_scanned_per_req"] = metric{rows / reads, "count"}
	}
	match := 0.0
	if untraced.counters == traced.counters {
		match = 1
	}
	all["trace.counters_match"] = metric{match, "bool"}
	overhead := ratio(float64(median(traced.walls)), float64(median(untraced.walls)))
	all["trace.overhead"] = metric{overhead, "ratio"}
	self, wall, unaccounted := selfTimes(traced.log)
	all["trace.unaccounted_ms"] = metric{ms(self["unaccounted"]) / n, "ms"}
	all["zql.parse_us"] = metric{ms(self["zql.parse"]) * 1000 / n, "us"}
	all["zexec.self_ms"] = metric{ms(self["zexec.self"]) / n, "ms"}
	batch, _ := spanTotal(traced.log, "engine.batch")
	all["engine.batch_ms"] = metric{ms(batch) / n, "ms"}
	all["engine.self_ms"] = metric{ms(self["engine.batch.self"]) / n, "ms"}
	all["engine.plans_per_batch"] = metric{ratio(float64(db.plans), float64(db.batches)), "count"}
	prep, preps := spanTotal(traced.log, "engine.prepare")
	all["engine.prepare_us"] = metric{ratio(ms(prep)*1000, float64(preps)), "us"}
	all["engine.seg_skip_ratio"] = metric{ratio(float64(db.skipped), float64(db.plans)*float64(traced.segments)), "ratio"}
	all["zpack.load_ms"] = metric{ms(self["zpack.load"]) / n, "ms"}
	var loads, loaded float64
	if traced.reader != nil {
		loads, loaded = float64(traced.reader.SegmentLoads()), float64(traced.reader.BytesLoaded())
	}
	all["zpack.loads"] = metric{loads, "count"}
	all["zpack.bytes_loaded"] = metric{loaded, "bytes"}

	server := map[string]float64{
		"handler_ms":          handler / reads,
		"server.self_mean_ms": (handler - fetch - proc) / reads,
		"zexec.fetch_ms":      fetch / reads,
		"zexec.process_ms":    proc / reads,
	}
	return renderReport(w, self, wall, unaccounted, overhead, server), traced.log, nil
}
