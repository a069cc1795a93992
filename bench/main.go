// Command bench is DataSpread's end-to-end and per-layer benchmark: four
// closed-loop workloads (served_oltp, analytic_scan, sheet_interactive,
// durable_ingest) generated from a seed, every result checked against a model
// the generator keeps, every metric printed by name and unit. See README.md
// and ../BENCHMARK.json.
//
//	bash bench/run.sh -seed 1                        # all four workloads
//	bash bench/run.sh -workload analytic_scan -seed 7 -seconds 30 -out runs.jsonl
//	bash bench/run.sh -workload served_oltp -seed 1 -trace 1
//	bash bench/run.sh -compare a.jsonl b.jsonl
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
)

var workloads = []struct {
	name string
	run  func(cfg config, rec *record) error
}{
	{"served_oltp", runServedOLTP},
	{"analytic_scan", runAnalyticScan},
	{"sheet_interactive", runSheetInteractive},
	{"durable_ingest", runDurableIngest},
}

func main() {
	os.Exit(realMain())
}

func realMain() int {
	cfg := defaultConfig()
	flag.StringVar(&cfg.workload, "workload", "", "workload to run (default: all four in turn)")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the generated inputs")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "length of the measured window")
	trace := flag.Int("trace", 0, "1: traced pass (per-layer metrics and span file) instead of the end-to-end run")
	out := flag.String("out", "", "append each run as one JSON line to this file")
	compare := flag.Bool("compare", false, "compare two result sets: -compare a.jsonl b.jsonl")
	flag.Parse()

	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare takes two result files")
			return 2
		}
		if err := compareFiles(os.Stdout, root, flag.Arg(0), flag.Arg(1)); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		return 0
	}
	cfg.trace = *trace != 0
	cfg.root = root
	if cfg.trace {
		cfg.setups = 1 // a traced run does not report setup_s
	}
	cfg.dataDir = filepath.Join(root, ".bench_build", "data", fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(cfg.dataDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	defer os.RemoveAll(cfg.dataDir)

	code := 0
	ran := false
	for _, w := range workloads {
		if cfg.workload != "" && cfg.workload != w.name {
			continue
		}
		ran = true
		one := cfg
		one.workload = w.name
		rec, err := runWorkload(one, w.run)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
			return 1
		}
		printRecord(rec)
		if *out != "" {
			if err := appendRecord(*out, rec); err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 1
			}
		}
		if !rec.Correct {
			code = 1
		}
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", cfg.workload)
		return 2
	}
	return code
}

// runWorkload runs one workload and completes its record. It refuses a load
// shape the machine cannot carry (see checkLoadShape).
func runWorkload(cfg config, run func(config, *record) error) (*record, error) {
	if err := checkLoadShape(cfg.clients, cfg.workers, runtime.NumCPU()); err != nil {
		return nil, fmt.Errorf("verdict unresolved: %w; refusing to report", err)
	}
	rec := &record{
		Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace, Scale: cfg.scale,
		Correct: true, EndToEnd: metrics{}, PerLayer: metrics{},
		Env: envInfo{
			NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
			Commit: commit(), Clients: cfg.clients, Workers: cfg.workers,
			Flush: "engine default: fsync per autocommit/COMMIT, CheckpointWALBytes 4 MiB",
		},
	}
	if err := run(cfg, rec); err != nil {
		return nil, err
	}
	if rec.Failed > 0 {
		rec.Correct = false
	}
	if err := fillPerLayer(rec.PerLayer); err != nil {
		return nil, err
	}
	return rec, nil
}

// printRecord prints every metric by name and unit, then — as the last line
// of standard output — the object the benchmark contract asks for: the
// end-to-end metrics of an untraced run, the per-layer metrics of a traced one.
func printRecord(rec *record) {
	fmt.Printf("# %s seed=%d seconds=%g trace=%v scale=%g nproc=%d gomaxprocs=%d clients=%d workers=%d %s commit=%s\n",
		rec.Workload, rec.Seed, rec.Seconds, rec.Trace, rec.Scale, rec.Env.NProc, rec.Env.GOMAXPROCS,
		rec.Env.Clients, rec.Env.Workers, rec.Env.GoVersion, rec.Env.Commit)
	fmt.Printf("# flush policy: %s\n", rec.Env.Flush)
	for k, name := range rec.Classes {
		fmt.Printf("# class%d = %s\n", k+1, name)
	}
	show := func(title string, m metrics) {
		names := make([]string, 0, len(m))
		for name := range m {
			names = append(names, name)
		}
		sort.Strings(names)
		fmt.Printf("## %s\n", title)
		for _, name := range names {
			fmt.Printf("%-42s %16.4f %s\n", name, m[name].Value, m[name].Unit)
		}
	}
	show("end to end", rec.EndToEnd)
	show("per layer", rec.PerLayer)
	final := struct {
		Correct   bool    `json:"correct"`
		Attempted int64   `json:"attempted"`
		Failed    int64   `json:"failed"`
		Metrics   metrics `json:"metrics"`
	}{rec.Correct, rec.Attempted, rec.Failed, rec.EndToEnd}
	if rec.Trace {
		final.Metrics = rec.PerLayer
	}
	line, err := json.Marshal(final)
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	fmt.Println(string(line))
}

func appendRecord(path string, rec *record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(append(line, '\n'))
	return errors.Join(err, f.Close())
}

// findRoot walks up from the working directory to the checkout root, the
// directory that holds BENCHMARK.json.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no BENCHMARK.json in the working directory or above it")
		}
		dir = parent
	}
}

// commit is the VCS revision the binary was built from, when the build
// recorded one.
func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" && len(s.Value) >= 12 {
				return s.Value[:12]
			}
		}
	}
	return "unknown"
}
