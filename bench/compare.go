package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// compareFiles reads two record files (bench -record, one run per line;
// several runs per workload, each with another seed), applies the
// bounds in BENCHMARK.json to every pairing of workload and end-to-end
// metric, and prints one row each: both medians, their ratio with its
// base, both run-to-run spreads, the bound and a verdict.
//
//	ok          the new median is no worse than the base's by more than the bound
//	REGRESSED   it is worse by more than the bound
//	unresolved  a spread (interquartile range / median) exceeds the bound,
//	            so the runs cannot tell
//	MISSING     the base has the workload or the bounded metric, the new
//	            file does not: counts as a regression
//
// Per-layer metrics, which have no bound, get their medians and ratio
// only. It reports whether anything regressed, failed checks included,
// and refuses files whose runs were not sized alike.
func compareFiles(w io.Writer, benchmarkJSON, basePath, newPath string) (regressed bool, err error) {
	blob, err := os.ReadFile(benchmarkJSON)
	if err != nil {
		return false, err
	}
	var decl struct {
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(blob, &decl); err != nil {
		return false, fmt.Errorf("%s: %w", benchmarkJSON, err)
	}
	base, err := readRecords(basePath)
	if err != nil {
		return false, err
	}
	fresh, err := readRecords(newPath)
	if err != nil {
		return false, err
	}
	if len(base) == 0 {
		return false, fmt.Errorf("%s holds no runs", basePath)
	}

	fmt.Fprintf(w, "%-15s %-34s %14s %14s %9s %8s %8s %6s  %s\n",
		"workload", "metric", "base median", "new median", "new/base", "spread b", "spread n", "bound", "verdict")
	for _, wl := range workloads {
		b, n := base[wl.name], fresh[wl.name]
		if b == nil {
			continue
		}
		if n == nil {
			regressed = true
			fmt.Fprintf(w, "%-15s MISSING from %s\n", wl.name, newPath)
			continue
		}
		if b.size != n.size {
			return false, fmt.Errorf("%s: the runs are not sized alike: %s has %+v, %s has %+v", wl.name, basePath, b.size, newPath, n.size)
		}
		if n.failed > 0 {
			regressed = true
			fmt.Fprintf(w, "%-15s %d of %d checks FAILED in the new runs\n", wl.name, n.failed, n.attempted)
		}
		for _, list := range [][]metricDef{decl.EndToEnd, decl.PerLayer} {
			for _, def := range list {
				bv, nv := b.values[def.Name], n.values[def.Name]
				if len(bv) == 0 {
					continue
				}
				if len(nv) == 0 {
					if def.Bound != 0 {
						regressed = true
						fmt.Fprintf(w, "%-15s %-34s MISSING from %s\n", wl.name, def.Name, newPath)
					}
					continue
				}
				bm, nm := median(bv), median(nv)
				row := fmt.Sprintf("%-15s %-34s %14.6g %14.6g %9.4f", wl.name, def.Name, bm, nm, ratio(nm, bm))
				if def.Bound == 0 {
					fmt.Fprintln(w, row)
					continue
				}
				worse := ratio(nm-bm, bm)
				if def.Better == "higher" {
					worse = -worse
				}
				sb, sn := spread(bv), spread(nv)
				verdict := "ok"
				switch {
				case sb > def.Bound || sn > def.Bound:
					verdict = "unresolved"
				case worse > def.Bound:
					verdict = "REGRESSED"
					regressed = true
				}
				fmt.Fprintf(w, "%s %7.2f%% %7.2f%% %5.0f%%  %s\n", row, sb*100, sn*100, def.Bound*100, verdict)
			}
		}
	}
	return regressed, nil
}

// runSize is what must be equal for two runs' numbers to be comparable.
type runSize struct {
	Scale, Seconds float64
	Setups         int
}

// recordSet is the runs of one workload in one record file, all of one
// size.
type recordSet struct {
	size              runSize
	values            map[string][]float64
	attempted, failed int
}

func readRecords(path string) (map[string]*recordSet, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	sets := map[string]*recordSet{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rep report
		if err := json.Unmarshal(sc.Bytes(), &rep); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		e := rep.Envelope
		size := runSize{e.Scale, e.Seconds, e.Setups}
		set := sets[e.Workload]
		if set == nil {
			set = &recordSet{size: size, values: map[string][]float64{}}
			sets[e.Workload] = set
		}
		if set.size != size {
			return nil, fmt.Errorf("%s: %s has runs of %+v and of %+v", path, e.Workload, set.size, size)
		}
		set.attempted += rep.Attempted
		set.failed += rep.Failed
		for name, m := range rep.Metrics {
			set.values[name] = append(set.values[name], m.Value)
		}
	}
	return sets, sc.Err()
}

// spread is the distance between the first and third quartile as a
// share of the median, the quartiles as Python's statistics.quantiles
// (n=4, exclusive method) gives them; with fewer than four values, the
// whole range.
func spread(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	m := median(s)
	if m == 0 || len(s) < 2 {
		return 0
	}
	if len(s) < 4 {
		return (s[len(s)-1] - s[0]) / m
	}
	quartile := func(k int) float64 {
		pos := float64(k) * float64(len(s)+1) / 4 // 1-based position
		i := int(pos)
		if i < 1 {
			return s[0]
		}
		if i >= len(s) {
			return s[len(s)-1]
		}
		return s[i-1] + (pos-float64(i))*(s[i]-s[i-1])
	}
	d := (quartile(3) - quartile(1)) / m
	if d < 0 {
		d = -d
	}
	return d
}
