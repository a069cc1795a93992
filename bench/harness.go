package main

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"time"

	"github.com/dataspread/dataspread"
)

// Every workload files its operations under four classes; the latency metrics
// are named by slot (class1_p50_us …) because the benchmark contract wants
// every workload to report every end-to-end metric. The README and each run's
// "classes" field give the names.
const numClasses = 4

// traceEvery is the sampling rate of the traced pass: one operation in 50 is
// replayed layer by layer.
const traceEvery = 50

// config is one run's settings. Only workload, seed, seconds and trace are
// flags. The rest has one value per machine (defaultConfig) so that any two
// result sets taken on it are comparable; the rot guard alone shrinks scale,
// and -compare refuses to judge sets whose settings differ.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	scale    float64 // multiplies every data size: 1, or 0.02 in the rot guard
	clients  int     // load goroutines / connections of served_oltp: min(2, nproc)
	workers  int     // engine Workers: nproc
	setups   int     // how often set-up is repeated for setup_s
	root     string  // checkout root (holds BENCHMARK.json)
	dataDir  string  // scratch space for workbook files
}

func defaultConfig() config {
	nproc := runtime.NumCPU()
	clients := 2
	if nproc < clients {
		clients = nproc
	}
	return config{scale: 1, clients: clients, workers: nproc, setups: 3}
}

func (c config) scaled(n int) int {
	v := int(float64(n) * c.scale)
	if v < 1 {
		v = 1
	}
	return v
}

func (c config) window() time.Duration { return time.Duration(c.seconds * float64(time.Second)) }

// warmup is the untimed lead-in that fills the plan cache, the decoded-page
// cache and the pool: 15% of the measured window.
func (c config) warmup() time.Duration { return c.window() * 15 / 100 }

// checkLoadShape is the honesty guard: numbers taken with more runnable load
// goroutines or engine workers than cores measure the scheduler, not the
// engine, so the harness refuses to report them.
func checkLoadShape(clients, workers, nproc int) error {
	if clients < 1 || workers < 1 {
		return fmt.Errorf("clients and workers must be at least 1")
	}
	if clients > nproc {
		return fmt.Errorf("%d load goroutines on %d cores", clients, nproc)
	}
	if workers > nproc {
		return fmt.Errorf("engine Workers=%d on %d cores", workers, nproc)
	}
	return nil
}

// opResult is what one closed-loop operation reports back.
type opResult struct {
	class int
	lat   time.Duration // the part of the operation a user waits for
	units int           // work completed, for ops_per_s (rows for durable_ingest, else 1)
	err   error         // failed, refused or wrong answer
}

// window is the outcome of one closed-loop run.
type window struct {
	lat       [numClasses]samples
	units     int64
	attempted int64
	failed    int64
	elapsed   time.Duration
	maxLat    time.Duration
}

func (w *window) opsPerSec() float64 { return ratio(float64(w.units), w.elapsed.Seconds()) }

// runLoop drives op closed-loop — each caller issues its next operation only
// after the previous one returned — from `clients` goroutines for dur.
func runLoop(dur time.Duration, clients int, op func(client int, i int64) opResult) *window {
	parts := make([]window, clients)
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			w := &parts[c]
			for i := int64(0); time.Now().Before(deadline); i++ {
				r := op(c, i)
				w.attempted++
				if r.err != nil {
					if w.failed < 3 {
						fmt.Fprintf(os.Stderr, "bench: operation failed: %v\n", r.err)
					}
					w.failed++
					continue
				}
				w.units += int64(r.units)
				w.lat[r.class] = append(w.lat[r.class], r.lat)
				if r.lat > w.maxLat {
					w.maxLat = r.lat
				}
			}
		}(c)
	}
	wg.Wait()
	out := &window{elapsed: time.Since(start)}
	for i := range parts {
		p := &parts[i]
		for k := range out.lat {
			out.lat[k] = append(out.lat[k], p.lat[k]...)
		}
		out.units += p.units
		out.attempted += p.attempted
		out.failed += p.failed
		if p.maxLat > out.maxLat {
			out.maxLat = p.maxLat
		}
	}
	return out
}

// repeatSetup builds the workload's state cfg.setups times, tearing down all
// but the last, and returns the last state with the median set-up time.
func repeatSetup[S any](cfg config, build func(rep int) (S, error), teardown func(S)) (S, time.Duration, error) {
	var last S
	var took samples
	for rep := 0; rep < cfg.setups; rep++ {
		if rep > 0 {
			teardown(last)
		}
		runtime.GC() // each repetition starts from the same heap
		t := time.Now()
		s, err := build(rep)
		if err != nil {
			var zero S
			return zero, 0, fmt.Errorf("set-up: %w", err)
		}
		took = append(took, time.Since(t))
		last = s
	}
	return last, took.median(), nil
}

// measure runs a workload's load: the warm-up, then — on a traced run — a
// short untraced window whose throughput the traced window is compared with,
// then the measured window. begin runs where the measured window starts, for
// the workload to snapshot its counters. On a traced run the spans are
// written out and trace.* reported.
func measure(cfg config, rec *record, clients int, begin func(), op func(tr *tracer, client int, i int64) opResult) (*window, *tracer, error) {
	untracedOp := func(c int, i int64) opResult { return op(nil, c, i) }
	runLoop(cfg.warmup(), clients, untracedOp)
	var tr *tracer
	var untraced float64
	if cfg.trace {
		w := runLoop(cfg.window()*3/10, clients, untracedOp)
		untraced = w.opsPerSec()
		rec.Attempted, rec.Failed = rec.Attempted+w.attempted, rec.Failed+w.failed
		tr = newTracer()
	}
	runtime.GC() // the window starts without the set-up's garbage
	begin()
	mem := startMemProbe()
	w := runLoop(cfg.window(), clients, func(c int, i int64) opResult { return op(tr, c, i) })
	mem.report(rec.PerLayer, w.attempted)
	if tr != nil {
		rec.PerLayer.set("trace.overhead_frac", 1-ratio(w.opsPerSec(), untraced), "ratio")
		rec.PerLayer.set("trace.spans", float64(len(tr.spans)), "count")
		path, err := tr.write(cfg.root, cfg.workload)
		if err != nil {
			return nil, nil, fmt.Errorf("writing spans: %w", err)
		}
		fmt.Fprintf(os.Stderr, "bench: %d spans written to %s\n", len(tr.spans), path)
	}
	return w, tr, nil
}

// memProbe brackets a window with runtime.MemStats for the go.* metrics.
type memProbe struct{ before runtime.MemStats }

func startMemProbe() *memProbe {
	p := &memProbe{}
	runtime.ReadMemStats(&p.before)
	return p
}

func (p *memProbe) report(m metrics, ops int64) {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	m.set("go.alloc_bytes_per_op", ratio(float64(after.TotalAlloc-p.before.TotalAlloc), float64(ops)), "B")
	m.set("go.allocs_per_op", ratio(float64(after.Mallocs-p.before.Mallocs), float64(ops)), "count")
	m.set("go.gc_pause_ms", float64(after.PauseTotalNs-p.before.PauseTotalNs)/1e6, "ms")
	m.set("go.peak_heap_mb", float64(after.HeapSys)/(1<<20), "MB")
}

// --- result ------------------------------------------------------------------

// envInfo records the conditions a run was taken under.
type envInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Clients    int    `json:"clients"`
	Workers    int    `json:"workers"`
	Flush      string `json:"flush_policy"`
}

// record is one run of one workload, as -out appends it and -compare reads it.
type record struct {
	Workload  string   `json:"workload"`
	Seed      int64    `json:"seed"`
	Seconds   float64  `json:"seconds"`
	Trace     bool     `json:"trace"`
	Scale     float64  `json:"scale"`
	Env       envInfo  `json:"env"`
	Classes   []string `json:"classes"`
	Correct   bool     `json:"correct"`
	Attempted int64    `json:"attempted"`
	Failed    int64    `json:"failed"`
	// EndToEnd holds the bounded metrics of BENCHMARK.json; PerLayer the
	// diagnostic ones (complete only on a traced run).
	EndToEnd metrics `json:"end_to_end"`
	PerLayer metrics `json:"per_layer"`
}

// endToEnd fills the bounded metrics from a measured window, and the tails
// and sample counts that were demoted to diagnostics.
func (r *record) endToEnd(setup time.Duration, w *window) {
	r.Attempted += w.attempted
	r.Failed += w.failed
	r.EndToEnd.set("setup_s", setup.Seconds(), "s")
	r.EndToEnd.set("ops_per_s", w.opsPerSec(), "1/s")
	for k := 0; k < numClasses; k++ {
		s := w.lat[k].sorted()
		r.EndToEnd.set(fmt.Sprintf("class%d_p50_us", k+1), us(quantile(s, 0.5)), "us")
		t, pct := tail(s)
		r.PerLayer.set(fmt.Sprintf("e2e.class%d_tail_us", k+1), us(t), "us")
		r.PerLayer.set(fmt.Sprintf("e2e.class%d_tail_pct", k+1), pct, "%")
		r.PerLayer.set(fmt.Sprintf("e2e.class%d_samples", k+1), float64(len(s)), "count")
	}
	r.PerLayer.set("e2e.failed_frac", ratio(float64(r.Failed), float64(r.Attempted)), "ratio")
	r.PerLayer.set("core.stall_max_ms", ms(w.maxLat), "ms")
}

// newRand returns the seeded source of one stream of choices (a client's
// operations, the generated table, …) of a run.
func newRand(seed int64, stream int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1000003 + int64(stream)))
}

// nums reads a result row of numbers.
func nums(row []dataspread.Value) ([]float64, error) {
	out := make([]float64, len(row))
	for i, v := range row {
		f, ok := v.AsNumber()
		if !ok {
			return nil, fmt.Errorf("column %d is not numeric: %v", i, v)
		}
		out[i] = f
	}
	return out, nil
}

// expectRow checks that a result is the single row want.
func expectRow(rows [][]dataspread.Value, want ...float64) error {
	if len(rows) != 1 {
		return fmt.Errorf("%d rows, want 1", len(rows))
	}
	got, err := nums(rows[0])
	if err != nil {
		return err
	}
	if len(got) != len(want) {
		return fmt.Errorf("%d columns, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("got %v, want %v", got, want)
		}
	}
	return nil
}
