package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"
)

// ownedLayers lists, per workload, per-layer metrics its traced pass must
// report above zero: the layers on that workload's path. A counter whose
// source disappeared from the engine fails here instead of reading 0.
var ownedLayers = map[string][]string{
	"served_oltp": {
		"client.ping_rtt_p50_us", "client.overhead_p50_us", "wire.encode_ns_per_frame", "wire.decode_ns_per_frame",
		"wire.bytes_per_op", "server.read_p50_us", "server.write_p50_us", "sqlparser.parse_ns_per_stmt",
		"sqlexec.prepare_hit_ns", "sqlexec.exec_class1_p50_us", "index.find_ns", "tablestore.get_ns_per_row",
		"pager.hits", "pager.get_hit_ns", "file.read_4k_ns", "trace.spans", "go.allocs_per_op",
	},
	"analytic_scan": {
		"sqlexec.exec_class1_p50_us", "sqlexec.exec_class2_p50_us", "sqlexec.exec_class3_p50_us", "sqlexec.exec_class4_p50_us",
		"sqlexec.pages_read", "sqlexec.pages_skipped", "sqlexec.pages_skipped_class1", "tablestore.scan_ns_per_row",
		"pager.misses", "pager.get_miss_ns", "file.heap.reads", "file.heap.read_bytes", "file.bytes_on_disk_per_user_byte",
	},
	"sheet_interactive": {
		"compute.evaluations_per_edit", "compute.visible_first_per_edit", "compute.background_runs", "compute.set_value_p50_us",
		"positional.get_ns", "positional.scan50_ns", "positional.insert_ns", "interfacemgr.on_scroll_p50_us",
		"interfacemgr.sheet_edit_p50_us", "interfacemgr.cells_written_per_scroll",
		"interfacemgr.refreshes", "interfacemgr.incremental_ops",
	},
	"durable_ingest": {
		"file.wal.syncs", "file.wal.write_bytes", "file.wal.sync_busy_ms", "file.heap.writes", "file.heap.syncs",
		"file.write_amp", "file.bytes_on_disk_per_user_byte", "txn.log_bytes_per_commit", "core.checkpoint_explicit_ms",
		"core.stall_max_ms", "durable.crash_acked", "sqlexec.exec_class1_p50_us", "index.find_ns", "pager.writes",
	},
}

// TestRotGuard runs every workload at 1/50 size for about a second, untraced
// and traced, and holds the output to BENCHMARK.json: every workload and
// metric it names is emitted with its unit, the names and counts are inside
// the contract's limits, and the correctness checks pass.
func TestRotGuard(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := readSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	if n := len(spec.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(spec.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(spec.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	seen := map[string]bool{}
	for _, m := range append(append([]metricSpec(nil), spec.EndToEnd...), spec.PerLayer...) {
		if !name.MatchString(m.Name) || seen[m.Name] {
			t.Errorf("metric name %q is malformed or repeated", m.Name)
		}
		seen[m.Name] = true
	}
	if len(spec.PerLayer) != len(perLayerUnits) {
		t.Errorf("BENCHMARK.json lists %d per-layer metrics, the harness declares %d", len(spec.PerLayer), len(perLayerUnits))
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the harness has %d", len(spec.Workloads), len(workloads))
	}

	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the harness", i, spec.Workloads[i].Name, w.name)
		}
		for _, traced := range []bool{false, true} {
			cfg := defaultConfig()
			cfg.workload, cfg.seed, cfg.seconds, cfg.trace = w.name, 1, 1, traced
			cfg.scale, cfg.setups = 0.02, 1
			cfg.root, cfg.dataDir = t.TempDir(), t.TempDir()
			rec, err := runWorkload(cfg, w.run)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, traced, err)
			}
			if !rec.Correct || rec.Failed != 0 || rec.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.name, traced, rec.Correct, rec.Attempted, rec.Failed)
			}
			if len(rec.Classes) != numClasses {
				t.Errorf("%s names %d classes, want %d", w.name, len(rec.Classes), numClasses)
			}
			if !traced {
				for _, m := range spec.EndToEnd {
					got, ok := rec.EndToEnd[m.Name]
					if !ok || got.Unit != m.Unit || got.Value <= 0 {
						t.Errorf("%s: end-to-end %s = %+v (present %v), want a positive value in %s", w.name, m.Name, got, ok, m.Unit)
					}
				}
				if len(rec.EndToEnd) != len(spec.EndToEnd) {
					t.Errorf("%s reports %d end-to-end metrics, BENCHMARK.json lists %d", w.name, len(rec.EndToEnd), len(spec.EndToEnd))
				}
				continue
			}
			for _, m := range spec.PerLayer {
				if got, ok := rec.PerLayer[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("%s: per-layer %s = %+v (present %v), want unit %s", w.name, m.Name, got, ok, m.Unit)
				}
			}
			for _, owned := range ownedLayers[w.name] {
				if rec.PerLayer[owned].Value <= 0 {
					t.Errorf("%s: its own layer metric %s reads %v", w.name, owned, rec.PerLayer[owned].Value)
				}
			}
			if _, err := os.Stat(filepath.Join(cfg.root, "bench", "out", "trace-"+w.name+".json")); err != nil {
				t.Errorf("%s: span file: %v", w.name, err)
			}
		}
	}
}

func TestLoadShapeGuard(t *testing.T) {
	if err := checkLoadShape(2, 2, 2); err != nil {
		t.Errorf("2 clients, 2 workers on 2 cores refused: %v", err)
	}
	for _, c := range [][3]int{{3, 2, 2}, {2, 8, 2}, {0, 1, 2}} {
		if checkLoadShape(c[0], c[1], c[2]) == nil {
			t.Errorf("clients=%d workers=%d nproc=%d accepted", c[0], c[1], c[2])
		}
	}
	cfg := defaultConfig()
	cfg.workers = runtime.NumCPU() + 1
	ran := false
	if _, err := runWorkload(cfg, func(config, *record) error { ran = true; return nil }); err == nil || ran {
		t.Errorf("runWorkload with Workers > nproc: err=%v, workload ran=%v", err, ran)
	}
}

// TestCrashFSKeepsOnlySyncedBytes pins the power-cut model: after crashNow a
// file holds exactly what its last completed Sync covered.
func TestCrashFSKeepsOnlySyncedBytes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "f.wal")
	fs := newCountFS(true)
	f, err := fs.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	must := func(_ int, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(f.Write([]byte("durable-")))
	must(f.WriteAt([]byte("D"), 0))
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	must(f.Write([]byte("lost tail")))
	must(f.WriteAt([]byte("XXXX"), 2))
	if err := f.Truncate(3); err != nil {
		t.Fatal(err)
	}
	if dropped := fs.crashNow(); dropped == 0 {
		t.Error("the crash reports no discarded bytes")
	}
	if _, err := f.Write([]byte("x")); err == nil {
		t.Error("write after the crash succeeded")
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "Durable-" {
		t.Errorf("after the crash the file holds %q, want %q", got, "Durable-")
	}
	_, wal := fs.snapshot()
	if wal.Syncs != 1 || wal.Writes != 4 || wal.Truncates != 1 {
		t.Errorf("counted %+v", wal)
	}
}

// TestCrashFSForgetsNothingAtClose pins what Close, Rename and Remove mean to
// the power cut: unsynced bytes stay unsynced after their handle is closed and
// travel with the file when it is renamed; only a Sync makes them durable.
func TestCrashFSForgetsNothingAtClose(t *testing.T) {
	dir := t.TempDir()
	fs := newCountFS(true)
	put := func(name, content string, sync bool) string {
		t.Helper()
		path := filepath.Join(dir, name)
		f, err := fs.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write([]byte(content)); err != nil {
			t.Fatal(err)
		}
		if sync {
			if err := f.Sync(); err != nil {
				t.Fatal(err)
			}
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		return path
	}
	closed := put("closed.wal", "never synced", false)
	log := put("log.wal", "old log", true)
	if err := fs.Rename(put("log.wal.compact", "compacted, synced", true), log); err != nil {
		t.Fatal(err)
	}
	other := put("other.wal", "old log", true)
	if err := fs.Rename(put("other.wal.compact", "compacted, not synced", false), other); err != nil {
		t.Fatal(err)
	}
	again := put("again.wal", "first", true)
	put("again.wal", "second, truncating the first", false)
	gone := put("gone.wal", "removed", true)
	if err := fs.Remove(gone); err != nil {
		t.Fatal(err)
	}
	fs.crashNow()
	for path, want := range map[string]string{closed: "", log: "compacted, synced", other: "", again: "first"} {
		if got, err := os.ReadFile(path); err != nil || string(got) != want {
			t.Errorf("%s holds %q (%v) after the crash, want %q", filepath.Base(path), got, err, want)
		}
	}
	if _, err := os.Stat(gone); !os.IsNotExist(err) {
		t.Errorf("the removed file is back: %v", err)
	}
}

// TestCrashFSFuse pins the armed cut: the n-th mutating call does not run.
func TestCrashFSFuse(t *testing.T) {
	path := filepath.Join(t.TempDir(), "heap.ds")
	fs := newCountFS(true)
	f, err := fs.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("kept")); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	fs.arm(2)
	if _, err := f.Write([]byte("-unsynced")); err != nil {
		t.Fatalf("first call after arming: %v", err)
	}
	if err := f.Sync(); err == nil {
		t.Fatal("the second call after arming ran")
	}
	if got, _ := os.ReadFile(path); string(got) != "kept" {
		t.Errorf("after the fuse the file holds %q, want %q", got, "kept")
	}
	if dropped := fs.crashNow(); dropped != int64(len("-unsynced")) {
		t.Errorf("dropped %d bytes, want %d", dropped, len("-unsynced"))
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
}

func TestCompareVerdicts(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := readSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	write := func(file string, opsPerSec, noise, seconds float64) string {
		path := filepath.Join(dir, file)
		for i := 0; i < 6; i++ {
			rec := &record{Workload: spec.Workloads[0].Name, Seed: int64(i), Seconds: seconds, EndToEnd: metrics{}}
			for _, m := range spec.EndToEnd {
				rec.EndToEnd.set(m.Name, 100, m.Unit)
			}
			rec.EndToEnd.set("ops_per_s", opsPerSec*(1+noise*float64(i%3-1)), "1/s")
			if err := appendRecord(path, rec); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	base := write("a.jsonl", 1000, 0.001, 10)
	for other, want := range map[string]string{
		write("same.jsonl", 995, 0.001, 10):   "ok",
		write("slow.jsonl", 500, 0.001, 10):   "worse",
		write("noisy.jsonl", 1000, 0.9, 10):   "unresolved",
		write("longer.jsonl", 995, 0.001, 30): "unresolved", // another window: not comparable
	} {
		var out bytes.Buffer
		if err := compareFiles(&out, root, base, other); err != nil {
			t.Fatal(err)
		}
		var line string
		for _, l := range strings.Split(out.String(), "\n") {
			if strings.HasPrefix(l, spec.Workloads[0].Name) && strings.Contains(l, " ops_per_s ") {
				line = l
			}
		}
		if !strings.HasSuffix(line, " "+want) {
			t.Errorf("want verdict %q, got line %q", want, line)
		}
	}
}
