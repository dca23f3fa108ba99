// Command mdxbench regenerates the paper's evaluation: Table 1, Tests
// 1–3 (Figures 10–12) and Tests 4–7 (Table 2), plus this repository's
// ablation studies.
//
// Usage:
//
//	mdxbench -dir ./benchdb -scale 0.1 -exp all
//	mdxbench -exp test2            # just Figure 11
//	mdxbench -exp ablations        # the ablation studies
//	mdxbench -exp serve -json BENCH_serve.json   # grouped vs solo serving
//
// The database is built on first use and reused afterwards. scale 1.0 is
// the paper's 2,000,000-row configuration.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"mdxopt/internal/experiments"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("mdxbench: ")
	dir := flag.String("dir", "mdxbenchdb", "database directory (built if missing)")
	scale := flag.Float64("scale", 0.1, "scale factor (1.0 = the paper's 2M rows)")
	exp := flag.String("exp", "all", "experiment: all, table1, test1..test7, study, ablations, serve")
	jsonOut := flag.String("json", "", "write the serve experiment's report to this JSON file")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the experiment to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile (after the experiment) to this file")
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				log.Fatal(err)
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				log.Fatal(err)
			}
		}()
	}

	// The serve experiment opens the database itself (it needs a
	// deliberately small buffer pool).
	if *exp == "serve" {
		if err := runServe(os.Stdout, *dir, *scale, *jsonOut); err != nil {
			log.Fatal(err)
		}
		return
	}

	start := time.Now()
	r, err := experiments.Open(*dir, *scale)
	if err != nil {
		log.Fatal(err)
	}
	defer r.Close()
	fmt.Printf("database ready in %s (%d base rows)\n\n",
		time.Since(start).Round(time.Millisecond), r.DB.Base().Rows())

	w := os.Stdout
	switch *exp {
	case "all":
		if err := r.RunAll(w); err != nil {
			log.Fatal(err)
		}
		if err := r.RunAblations(w); err != nil {
			log.Fatal(err)
		}
	case "table1":
		r.Table1().Format(w)
	case "test1", "test2", "test3":
		fns := map[string]func() (*experiments.SharedOpResult, error){
			"test1": r.Test1, "test2": r.Test2, "test3": r.Test3,
		}
		res, err := fns[*exp]()
		if err != nil {
			log.Fatal(err)
		}
		res.Format(w)
	case "test4", "test5", "test6", "test7":
		fns := map[string]func() (*experiments.AlgoResult, error){
			"test4": r.Test4, "test5": r.Test5, "test6": r.Test6, "test7": r.Test7,
		}
		res, err := fns[*exp]()
		if err != nil {
			log.Fatal(err)
		}
		res.Format(w)
	case "study":
		res, err := r.OptimizerStudy()
		if err != nil {
			log.Fatal(err)
		}
		res.Format(w)
	case "ablations":
		if err := r.RunAblations(w); err != nil {
			log.Fatal(err)
		}
	default:
		log.Fatalf("unknown experiment %q", *exp)
	}
}
