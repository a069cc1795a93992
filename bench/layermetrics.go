package main

import "fmt"

// perLayerUnits names every per-layer (diagnostic) metric and its unit. Every
// workload reports all of them: a layer that is not on a workload's path
// reports 0, which is itself the claim ("sheet_interactive does no file I/O").
// A counter whose source disappears from the engine must be retired here and
// in BENCHMARK.json by a benchmark issue, never left to read 0 silently: the
// rot guard fails when a workload that owns a metric stops producing it.
var perLayerUnits = map[string]string{
	"client.ping_rtt_p50_us":   "us",
	"client.overhead_p50_us":   "us",
	"wire.encode_ns_per_frame": "ns",
	"wire.decode_ns_per_frame": "ns",
	"wire.bytes_per_op":        "B",

	"server.read_p50_us":        "us",
	"server.write_p50_us":       "us",
	"server.gap_p50_us":         "us",
	"server.write_gap_p50_us":   "us",
	"server.admission_rejected": "count",
	"server.evictions":          "count",
	"server.errors":             "count",

	"sqlparser.parse_ns_per_stmt":  "ns",
	"sqlexec.prepare_hit_ns":       "ns",
	"sqlexec.plan_cache_hit_ratio": "ratio",
	"sqlexec.exec_class1_p50_us":   "us",
	"sqlexec.exec_class2_p50_us":   "us",
	"sqlexec.exec_class3_p50_us":   "us",
	"sqlexec.exec_class4_p50_us":   "us",
	"sqlexec.pages_read":           "count",
	"sqlexec.pages_skipped":        "count",
	"sqlexec.skip_ratio":           "ratio",
	"sqlexec.pages_skipped_class1": "count",
	"sqlexec.pages_skipped_class2": "count",
	"sqlexec.pages_skipped_class3": "count",
	"sqlexec.pages_skipped_class4": "count",
	"sqlexec.epochs_retained":      "count",
	"core.self_p50_us":             "us",

	"tablestore.scan_ns_per_row": "ns",
	"tablestore.get_ns_per_row":  "ns",
	"index.find_ns":              "ns",

	"pager.hits":        "count",
	"pager.misses":      "count",
	"pager.hit_ratio":   "ratio",
	"pager.reads":       "count",
	"pager.writes":      "count",
	"pager.get_hit_ns":  "ns",
	"pager.get_miss_ns": "ns",

	"file.heap.reads":                  "count",
	"file.heap.read_bytes":             "B",
	"file.heap.read_busy_ms":           "ms",
	"file.heap.writes":                 "count",
	"file.heap.write_bytes":            "B",
	"file.heap.syncs":                  "count",
	"file.heap.sync_busy_ms":           "ms",
	"file.wal.writes":                  "count",
	"file.wal.write_bytes":             "B",
	"file.wal.syncs":                   "count",
	"file.wal.sync_busy_ms":            "ms",
	"file.wal.truncates":               "count",
	"file.read_4k_ns":                  "ns",
	"file.write_amp":                   "ratio",
	"file.bytes_on_disk_per_user_byte": "ratio",

	"txn.log_bytes_per_commit":    "B",
	"core.checkpoints":            "count",
	"core.checkpoint_explicit_ms": "ms",
	"core.stall_max_ms":           "ms",
	"durable.crash_acked":         "count",
	"durable.crash_lost_acks":     "count",
	"durable.crash_dropped_bytes": "B",

	"compute.evaluations_per_edit":   "count",
	"compute.visible_first_per_edit": "count",
	"compute.background_runs":        "count",
	"compute.set_value_p50_us":       "us",

	"positional.get_ns":    "ns",
	"positional.scan50_ns": "ns",
	"positional.insert_ns": "ns",

	"interfacemgr.on_scroll_p50_us":         "us",
	"interfacemgr.sheet_edit_p50_us":        "us",
	"interfacemgr.cells_written_per_scroll": "count",
	"interfacemgr.refreshes":                "count",
	"interfacemgr.incremental_ops":          "count",
	"interfacemgr.memo_hit_ratio":           "ratio",

	"go.alloc_bytes_per_op": "B",
	"go.allocs_per_op":      "count",
	"go.gc_pause_ms":        "ms",
	"go.peak_heap_mb":       "MB",

	"trace.overhead_frac": "ratio",
	"trace.spans":         "count",

	"e2e.failed_frac":     "ratio",
	"e2e.class1_tail_us":  "us",
	"e2e.class2_tail_us":  "us",
	"e2e.class3_tail_us":  "us",
	"e2e.class4_tail_us":  "us",
	"e2e.class1_tail_pct": "%",
	"e2e.class2_tail_pct": "%",
	"e2e.class3_tail_pct": "%",
	"e2e.class4_tail_pct": "%",
	"e2e.class1_samples":  "count",
	"e2e.class2_samples":  "count",
	"e2e.class3_samples":  "count",
	"e2e.class4_samples":  "count",
}

// fillPerLayer checks that every reported metric is declared with its unit
// and reports 0 for the layers the workload did not touch.
func fillPerLayer(m metrics) error {
	for name, got := range m {
		unit, ok := perLayerUnits[name]
		if !ok {
			return fmt.Errorf("per-layer metric %q is not declared in perLayerUnits", name)
		}
		if unit != got.Unit {
			return fmt.Errorf("per-layer metric %q reported in %q, declared in %q", name, got.Unit, unit)
		}
	}
	for name, unit := range perLayerUnits {
		if _, ok := m[name]; !ok {
			m.set(name, 0, unit)
		}
	}
	return nil
}

// engineBase is a snapshot of an embedded workbook's counters, taken where a
// measured window starts.
type engineBase struct {
	heap, wal     fileCounters
	pool, store   poolStats // the pool's own counters; the backend's block I/O under it
	read, skipped int64
	planHits      uint64
	planMisses    uint64
}

func snapEngine(wb *workbook, fs *countFS) engineBase {
	b := engineBase{pool: wb.DB().Pool().Stats(), store: wb.DB().PagerStats()}
	b.read, b.skipped = wb.DB().ScanStats()
	pc := wb.DB().PlanCacheStats()
	b.planHits, b.planMisses = pc.Hits, pc.Misses
	if fs != nil {
		b.heap, b.wal = fs.snapshot()
	}
	return b
}

// engineCounters reports what the pool, the scan paths and the files of an
// embedded workbook did since base.
func engineCounters(m metrics, wb *workbook, fs *countFS, base engineBase) {
	now := snapEngine(wb, fs)
	pool := now.pool.Sub(base.pool)
	m.set("pager.hits", float64(pool.Hits), "count")
	m.set("pager.misses", float64(pool.Misses), "count")
	m.set("pager.hit_ratio", ratio(float64(pool.Hits), float64(pool.Hits+pool.Misses)), "ratio")
	store := now.store.Sub(base.store)
	m.set("pager.reads", float64(store.Reads), "count")
	m.set("pager.writes", float64(store.Writes), "count")

	read, skipped := now.read-base.read, now.skipped-base.skipped
	m.set("sqlexec.pages_read", float64(read), "count")
	m.set("sqlexec.pages_skipped", float64(skipped), "count")
	m.set("sqlexec.skip_ratio", ratio(float64(skipped), float64(read+skipped)), "ratio")
	_, retained := wb.DB().EpochStats()
	m.set("sqlexec.epochs_retained", float64(retained), "count")
	planHits, planMisses := now.planHits-base.planHits, now.planMisses-base.planMisses
	m.set("sqlexec.plan_cache_hit_ratio", ratio(float64(planHits), float64(planHits+planMisses)), "ratio")

	heap, wal := now.heap.sub(base.heap), now.wal.sub(base.wal)
	m.set("file.heap.reads", float64(heap.Reads), "count")
	m.set("file.heap.read_bytes", float64(heap.ReadBytes), "B")
	m.set("file.heap.read_busy_ms", ms(heap.ReadBusy), "ms")
	m.set("file.heap.writes", float64(heap.Writes), "count")
	m.set("file.heap.write_bytes", float64(heap.WriteBytes), "B")
	m.set("file.heap.syncs", float64(heap.Syncs), "count")
	m.set("file.heap.sync_busy_ms", ms(heap.SyncBusy), "ms")
	m.set("file.wal.writes", float64(wal.Writes), "count")
	m.set("file.wal.write_bytes", float64(wal.WriteBytes), "B")
	m.set("file.wal.syncs", float64(wal.Syncs), "count")
	m.set("file.wal.sync_busy_ms", ms(wal.SyncBusy), "ms")
	m.set("file.wal.truncates", float64(wal.Truncates), "count")
}

// probePool times BufferPool.Get on page ids of the workbook, telling hits
// from misses by the pool's own counters (the caller is the only user of the
// workbook while it runs).
func probePool(m metrics, wb *workbook, n int) {
	ids := wb.DB().DurablePageIDs()
	if len(ids) == 0 {
		return
	}
	pool := wb.DB().Pool()
	var hit, miss samples
	for i := 0; i < n; i++ {
		id := ids[(i*7919)%len(ids)]
		before := pool.Stats().Misses
		d, err := timed(func() error { _, err := pool.Get(id); return err })
		if err != nil {
			continue
		}
		if pool.Stats().Misses > before {
			miss = append(miss, d)
			// The page is resident now: a second Get is a certain hit.
			if d, err := timed(func() error { _, err := pool.Get(id); return err }); err == nil {
				hit = append(hit, d)
			}
		} else {
			hit = append(hit, d)
		}
	}
	m.set("pager.get_hit_ns", float64(hit.median().Nanoseconds()), "ns")
	m.set("pager.get_miss_ns", float64(miss.median().Nanoseconds()), "ns")
}
