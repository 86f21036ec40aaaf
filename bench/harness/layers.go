package harness

// PerLayer is the per-layer metric catalogue the traced run
// (../layers, build tag `layers`) fills in. It lives here, outside
// the tag, so README.md and BENCHMARK.json can be checked against it
// by plain `go test`. Names are <layer>.<metric>; time metrics are
// medians over repeated calls on the workload's own tables and
// predicates. Meaning ends with the end-to-end metric the number
// should move, and where.
//
// Universal metrics are measured on every workload and are what
// BENCHMARK.json lists. The rest are timings of the HTTP plane, which
// only exist where a server runs; the traced run prints them there.
var PerLayer = []MetricDef{
	// server: parse, result LRU, JSON render, the table-wide lock.
	{"server.polls_per_advise", "count", Lower, 0, true, "GET /jobs/{id} polls per advise that ran; 0 in-process -> advises_per_s on serve_hot"},
	{"server.lru_hit_ratio", "ratio", Higher, 0, true, "result-LRU hits / lookups from /metrics deltas; 0 in-process -> hit share of advises_per_s on serve_hot"},
	{"server.append_rows_per_s", "rows/s", Higher, 0, true, "rows acknowledged per second of loader busy time; 0 except on append_mix"},
	{"server.boot_ms", "ms", Lower, 0, false, "process start to first /healthz 200 -> setup_s on the HTTP workloads"},
	{"server.submit_ms", "ms", Lower, 0, false, "POST /advise round trip answered 202 -> advise_p50_ms on the HTTP workloads"},
	{"server.poll_ms", "ms", Lower, 0, false, "the GET /jobs/{id} that finds the job done, JSON render included -> advise_p50_ms on the HTTP workloads"},
	{"server.hit_p50_ms", "ms", Lower, 0, false, "median latency of result-LRU hits (untraced pass) -> advises_per_s on serve_hot"},
	{"server.append_p50_ms", "ms", Lower, 0, false, "median POST /append round trip beside the reader (untraced pass)"},
	{"server.append_tail_ms", "ms", Lower, 0, false, "tail percentile of the same"},
	{"server.append_idle_ms", "ms", Lower, 0, false, "the same batches against an idle server"},
	{"server.append_wait_ms", "ms", Lower, 0, false, "append_p50_ms - append_idle_ms: what the table-wide lock and the in-flight advise cost a write"},

	// jobs: queue, workers, coalescing.
	{"jobs.submitted", "count", Lower, 0, true, "jobs created over the op list (from /metrics); 0 in-process"},
	{"jobs.coalesced", "count", Higher, 0, true, "submissions answered by an existing job; 0 in-process"},
	{"jobs.noop_roundtrip_us", "us", Lower, 0, true, "Manager.Submit of a no-op RunFunc until Done: the queue's own cost -> advise_tail_ms on serve_hot"},
	{"jobs.queue_wait_ms", "ms", Lower, 0, false, "median queue_wait stage of traced jobs -> advise_tail_ms on serve_hot (queueing shows in the tail first)"},
	{"jobs.run_ms", "ms", Lower, 0, false, "median run stage of traced jobs"},

	// core: HB-cuts stages, per advise that ran.
	{"core.hbcuts_ms", "ms", Lower, 0, true, "median whole HB-cuts call (facade AdviseCtx, or the job's run stage) -> advise_p50_ms everywhere"},
	{"core.initial_cuts_ms", "ms", Lower, 0, true, "median initial_cuts stage total -> advise_p50_ms on cold_explore, where it dominates"},
	{"core.indep_pairs_ms", "ms", Lower, 0, true, "median indep_pairs stage total -> advise_p50_ms on drill_session once cuts are cached"},
	{"core.compose_ms", "ms", Lower, 0, true, "median compose stage total -> advise_p50_ms on drill_session"},
	{"core.indep_evals", "count", Lower, 0, true, "INDEP evaluations summed over advises that ran (exact in-process)"},
	{"core.iterations", "count", Lower, 0, true, "composition steps summed over advises that ran (exact in-process)"},

	// seg: cut/INDEP/compose primitives and the evaluator caches.
	{"seg.initial_cut_ms.int", "ms", Lower, 0, true, "cold InitialCut on tonnage -> core.initial_cuts_ms -> cold_explore"},
	{"seg.initial_cut_ms.float", "ms", Lower, 0, true, "cold InitialCut on the sky survey's magnitude -> cold_explore (the only workload with float columns)"},
	{"seg.initial_cut_ms.date", "ms", Lower, 0, true, "cold InitialCut on departure_date -> cold_explore; on the .chc workloads the column is clustered"},
	{"seg.initial_cut_ms.string", "ms", Lower, 0, true, "cold InitialCut on type_of_boat -> cold_explore"},
	{"seg.indep_ms", "ms", Lower, 0, true, "IndepOpt with warm pair sides -> core.indep_pairs_ms -> drill_session"},
	{"seg.compose_ms", "ms", Lower, 0, true, "Compose of two initial cuts on a fresh evaluator -> core.compose_ms"},
	{"seg.select_bitmap_cold_ms", "ms", Lower, 0, true, "SelectBitmap of a constrained query on a fresh evaluator -> cold_explore, serve_hot misses"},
	{"seg.select_bitmap_warm_us", "us", Lower, 0, true, "the same query again: a cache hit -> drill_session, serve_hot hits-after-miss"},
	{"seg.full_evals", "count", Lower, 0, true, "full constraint-chain evaluations over the op list"},
	{"seg.narrow_evals", "count", Lower, 0, true, "parent-to-child narrow evaluations over the op list"},
	{"seg.cache_hits", "count", Higher, 0, true, "selections and bitmaps served from the evaluator cache"},
	{"seg.cache_hit_ratio", "ratio", Higher, 0, true, "cache_hits / (cache_hits + full_evals + narrow_evals); one advise reuses its own selections, so even cold_explore reads ~0.7 and drill_session ~0.86"},
	{"seg.cut_point_calcs", "count", Lower, 0, true, "median/quantile cut-point computations"},
	{"seg.cut_cache_hits", "count", Higher, 0, true, "cut-point sets served from the cut cache"},
	{"seg.cut_cache_hit_ratio", "ratio", Higher, 0, true, "cut_cache_hits / (cut_cache_hits + cut_point_calcs): reuse across advises only, so 0 on cold_explore and about half on drill_session"},
	{"seg.delta_refreshes", "count", Lower, 0, true, "cached selections spliced after a mutation: non-zero only on append_mix -> its advise_p50_ms"},
	{"seg.cut_refreshes", "count", Lower, 0, true, "cached cut points spliced after a mutation: append_mix only"},
	{"seg.pair_memo_hits", "count", Higher, 0, true, "pair sides reused from the PairMemo"},
	{"seg.pair_memo_misses", "count", Lower, 0, true, "pair sides built fresh"},

	// engine: chunked kernels, order statistics, mutation.
	{"engine.filter_int_range_ms", "ms", Lower, 0, true, "FilterIntRangeChunked over all rows of tonnage -> at most its share of core.initial_cuts_ms on cold_explore; little on drill_session"},
	{"engine.filter_int_range_w1_ms", "ms", Lower, 0, true, "the same at one scan worker: with the line above, the workers>=2-slower-than-1 finding"},
	{"engine.filter_float_range_ms", "ms", Lower, 0, true, "FilterFloatRangeChunked over magnitude -> cold_explore"},
	{"engine.filter_string_set_ms", "ms", Lower, 0, true, "FilterStringSetChunked over type_of_boat -> cold_explore"},
	{"engine.filter_int_range_bitmap_ms", "ms", Lower, 0, true, "FilterIntRangeChunkedBitmap, the fused kernel -> cold_explore"},
	{"engine.int_cutpoints_ms", "ms", Lower, 0, true, "IntCutPointsChunked (binary) over all rows -> seg.initial_cut_ms.int"},
	{"engine.int_cutpoints_w1_ms", "ms", Lower, 0, true, "the same at one scan worker"},
	{"engine.float_cutpoints_ms", "ms", Lower, 0, true, "FloatCutPointsChunked over magnitude -> seg.initial_cut_ms.float"},
	{"engine.string_value_counts_ms", "ms", Lower, 0, true, "StringValueCountsChunked over master -> seg.initial_cut_ms.string"},
	{"engine.bitmap_andcount_us", "us", Lower, 0, true, "Bitmap.AndCount of two dense bitmaps -> seg.indep_ms"},
	{"engine.int_sorted_runs_splice_ms", "ms", Lower, 0, true, "IntSortedRunsSplice with the last chunk dirty -> seg.cut_refreshes -> append_mix"},
	{"engine.append_rows_ms", "ms", Lower, 0, true, "AppendRows of one 500-row batch on a memory table -> append_p50_ms"},
	{"engine.warm_summaries_ms", "ms", Lower, 0, true, "WarmSummaries on a fresh memory table -> setup_s"},
	{"engine.zone_skip", "count", Higher, 0, true, "chunks skipped whole by a zone verdict over the op list"},
	{"engine.zone_take", "count", Higher, 0, true, "chunks passed whole by a zone verdict"},
	{"engine.zone_scan", "count", Lower, 0, true, "chunks scanned row by row"},
	{"engine.zone_pruned_ratio", "ratio", Higher, 0, true, "(skip + take) / all verdicts: ~0 on cold_explore, real on the date-clustered .chc workloads"},
	{"engine.vector_kernels", "count", Lower, 0, true, "chunked filters answered with row-id selections"},
	{"engine.fused_kernels", "count", Lower, 0, true, "chunked filters fused into bitmap words"},

	// stats: order statistics over 1M values in 16 chunks.
	{"stats.equidepth_chunks_ms", "ms", Lower, 0, true, "EquiDepthPointsChunks -> the order-statistic share of engine.int_cutpoints_ms, hence cold_explore"},
	{"stats.equidepth_chunks_float_ms", "ms", Lower, 0, true, "EquiDepthPointsChunksFloat64 -> engine.float_cutpoints_ms"},
	{"stats.median_quickselect_ms", "ms", Lower, 0, true, "MedianInt64 (quickselect) over the flat values"},
	{"stats.kth_sorted_chunks_ms", "ms", Lower, 0, true, "KthSortedInt64Chunks over pre-sorted chunks -> the cut-cache splice path"},

	// colfile: the .chc backend.
	{"colfile.write_ms", "ms", Lower, 0, true, "Write of the VOC table, clustered by departure_date -> setup_s on drill_session and serve_hot"},
	{"colfile.open_ms", "ms", Lower, 0, true, "Open by mmap -> setup_s; steady-state numbers should not move"},
	{"colfile.verify_ms", "ms", Lower, 0, true, "Verify: every page CRC"},
	{"colfile.bytes_per_row", "B/row", Lower, 0, true, "file size / rows (exact)"},
	{"colfile.first_touch_advise_ms", "ms", Lower, 0, true, "first advise on a freshly opened mapping -> the warm-up share of setup_s"},

	{"sdl.parse_bound_us", "us", Lower, 0, true, "ParseBound of a hot context -> hit_p50_ms only"},

	{"par.foreach_overhead_us", "us", Lower, 0, true, "ForEach over 16 no-op tasks at NumCPU workers -> cold_explore fan-out"},
	{"par.foreach_overhead_w1_us", "us", Lower, 0, true, "the same at one worker"},

	// charles: the facade, cold advises of the workload's base contexts.
	{"charles.allocs_per_advise", "count", Lower, 0, true, "mallocs per cold advise (runtime.MemStats) -> advise_p50_ms via GC; the PR 8 +9% creep would show here"},
	{"charles.bytes_per_advise", "B", Lower, 0, true, "bytes allocated per cold advise -> peak_rss_mb"},
	{"charles.gc_pause_ms", "ms", Lower, 0, true, "GC pause per cold advise -> advise_tail_ms"},

	{"obs.trace_overhead_pct", "%", Lower, 0, true, "(untraced - traced) / untraced advises_per_s, same binary, same op list"},
}
