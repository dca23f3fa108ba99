package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// TestBenchmarkJSONIsDescribe keeps the declaration at the repository
// root and the code from drifting apart.
func TestBenchmarkJSONIsDescribe(t *testing.T) {
	want, err := describe()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("BENCHMARK.json differs from `bench -describe`; regenerate it with: bash bench/run.sh -describe > BENCHMARK.json")
	}
}

// TestSmoke runs every workload, untraced and traced, on a database of
// 20,000 facts for a fraction of a second: the benchmark compiles
// against the internal packages it times, every declared metric comes
// out with its unit, every check passes, and the staged replay adds up
// to roughly what the facade took.
func TestSmoke(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			r := &run{w: w, seed: 7, seconds: 0.2, scale: 0.01, setups: 1, work: t.TempDir()}
			rep, err := r.execute(traced, "")
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if rep.Failed != 0 || rep.Attempted == 0 {
				t.Errorf("%s traced=%v: %d of %d checks failed: %s", w.name, traced, rep.Failed, rep.Attempted, rep.Failure)
			}
			if len(rep.Metrics) != len(rep.declared()) {
				t.Errorf("%s traced=%v: %d metrics reported, %d declared", w.name, traced, len(rep.Metrics), len(rep.declared()))
			}
			for _, def := range rep.declared() {
				m, ok := rep.Metrics[def.Name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: %s not reported", w.name, traced, def.Name)
				case !name.MatchString(def.Name) || !unit.MatchString(m.Unit):
					t.Errorf("%s traced=%v: %s [%s] is not a legal name and unit", w.name, traced, def.Name, m.Unit)
				case !traced && !(m.Value > 0):
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, def.Name, m.Value)
				}
			}
			if ls := rep.Metrics["facade.layer_sum_ratio"].Value; traced && !w.maint && (ls < 0.2 || ls > 5) {
				t.Errorf("%s: facade.layer_sum_ratio = %v: the stages do not add up to the facade's time", w.name, ls)
			}
		}
	}
}

// TestCompareMissingAndMismatch: a workload or bounded metric the base
// has and the new file lacks is a regression, and runs of another size
// are refused, not pooled.
func TestCompareMissingAndMismatch(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, reps ...*report) string {
		path := filepath.Join(dir, name)
		for _, rep := range reps {
			if err := rep.appendTo(path); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	rec := func(workload string, scale float64, metrics map[string]float64) *report {
		rep := &report{Metrics: map[string]metric{}, Attempted: 1}
		rep.Envelope = envelope{Workload: workload, Scale: scale, Seconds: 10, Setups: 3}
		for name, v := range metrics {
			rep.set(name, v)
		}
		return rep
	}
	full := map[string]float64{"expr_per_s": 100, "expr_p50_ms": 1}
	base := write("base", rec("scan_cold", 0.25, full), rec("probe_warm", 0.25, full))

	for _, c := range []struct {
		name      string
		fresh     string
		regressed bool
		refused   bool
	}{
		{"same", write("same", rec("scan_cold", 0.25, full), rec("probe_warm", 0.25, full)), false, false},
		{"workload missing", write("noprobe", rec("scan_cold", 0.25, full)), true, false},
		{"metric missing", write("nop50", rec("scan_cold", 0.25, map[string]float64{"expr_per_s": 100}), rec("probe_warm", 0.25, full)), true, false},
		{"other scale", write("scale", rec("scan_cold", 0.5, full), rec("probe_warm", 0.5, full)), false, true},
		{"mixed sizes in one file", write("mixed", rec("scan_cold", 0.25, full), rec("scan_cold", 0.5, full)), false, true},
	} {
		regressed, err := compareFiles(io.Discard, "../BENCHMARK.json", base, c.fresh)
		if (err != nil) != c.refused || regressed != c.regressed {
			t.Errorf("%s: regressed=%v err=%v, want regressed=%v refused=%v", c.name, regressed, err, c.regressed, c.refused)
		}
	}
}
