package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// benchmarkSpec is the part of BENCHMARK.json the harness reads back.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readSpec(root string) (*benchmarkSpec, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &spec, nil
}

// readRecords loads a result set: one JSON record per line, as -out writes.
func readRecords(path string) ([]record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var out []record
	for _, line := range bytes.Split(data, []byte("\n")) {
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(line, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if !r.Trace { // a traced run's end-to-end numbers carry the tracing overhead
			out = append(out, r)
		}
	}
	return out, nil
}

// settings names what the runs of one workload in a result set were taken
// under: window, data scale, load shape and the seeds.
func settings(recs []record, workload string) string {
	shapes := map[string]bool{}
	var seeds []int64
	for _, r := range recs {
		if r.Workload != workload {
			continue
		}
		shapes[fmt.Sprintf("seconds=%g scale=%g clients=%d workers=%d", r.Seconds, r.Scale, r.Env.Clients, r.Env.Workers)] = true
		seeds = append(seeds, r.Seed)
	}
	names := make([]string, 0, len(shapes))
	for s := range shapes {
		names = append(names, s)
	}
	sort.Strings(names)
	sort.Slice(seeds, func(i, j int) bool { return seeds[i] < seeds[j] })
	return fmt.Sprintf("%s seeds=%v", strings.Join(names, " / "), seeds)
}

// compareFiles prints, per workload × end-to-end metric, each side's median
// and quartiles, the ratio of the medians with its base, the metric's bound
// and a verdict:
//
//	ok         b's median is no worse than a's by more than the bound
//	worse      it is
//	unresolved the run-to-run spread (either side's interquartile range over
//	           its median) is wider than the bound, so neither can be said;
//	           or the two sets were not taken under the same settings
//	           (window, scale, clients, workers, seeds)
func compareFiles(w io.Writer, root, pathA, pathB string) error {
	spec, err := readSpec(root)
	if err != nil {
		return err
	}
	a, err := readRecords(pathA)
	if err != nil {
		return err
	}
	b, err := readRecords(pathB)
	if err != nil {
		return err
	}
	values := func(recs []record, workload, name string) []float64 {
		var v []float64
		for _, r := range recs {
			if m, ok := r.EndToEnd[name]; ok && r.Workload == workload {
				v = append(v, m.Value)
			}
		}
		return v
	}
	fmt.Fprintf(w, "a = %s, b = %s; ratio = median(b) / median(a); spread = (q3 - q1) / median\n", pathA, pathB)
	fmt.Fprintf(w, "%-18s %-15s %-5s %3s %12s %12s %12s %7s | %3s %12s %12s %12s %7s | %7s %6s %s\n",
		"workload", "metric", "unit", "n_a", "q1_a", "median_a", "q3_a", "spread", "n_b", "q1_b", "median_b", "q3_b", "spread", "ratio", "bound", "verdict")
	for _, wl := range spec.Workloads {
		sa, sb := settings(a, wl.Name), settings(b, wl.Name)
		if sa != sb {
			fmt.Fprintf(w, "%-18s settings differ, every verdict unresolved: a: %s; b: %s\n", wl.Name, sa, sb)
		}
		for _, ms := range spec.EndToEnd {
			va, vb := values(a, wl.Name, ms.Name), values(b, wl.Name, ms.Name)
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(w, "%-18s %-15s missing from %d/%d runs: unresolved\n", wl.Name, ms.Name, len(va), len(vb))
				continue
			}
			a1, a2, a3 := quartiles(va)
			b1, b2, b3 := quartiles(vb)
			spreadA, spreadB := ratio(a3-a1, a2), ratio(b3-b1, b2)
			change := ratio(b2, a2)
			worse := change - 1 // lower is better: b above a is worse
			if ms.Better == "higher" {
				worse = 1 - change
			}
			verdict := "ok"
			switch {
			case sa != sb, spreadA > ms.Bound || spreadB > ms.Bound:
				verdict = "unresolved"
			case worse > ms.Bound:
				verdict = "worse"
			}
			fmt.Fprintf(w, "%-18s %-15s %-5s %3d %12.4g %12.4g %12.4g %6.1f%% | %3d %12.4g %12.4g %12.4g %6.1f%% | %7.4f %5.0f%% %s\n",
				wl.Name, ms.Name, ms.Unit, len(va), a1, a2, a3, 100*spreadA, len(vb), b1, b2, b3, 100*spreadB, change, 100*ms.Bound, verdict)
		}
	}
	return nil
}
