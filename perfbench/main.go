// Command perfbench is the repository benchmark: three deterministic
// workloads driven through the public API of the simulated stack, with
// end-to-end metrics on the virtual and the host clock and, in a traced
// run, per-layer attribution. See README.md.
//
//	perfbench --workload seq-stream --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"time"
)

func main() {
	name := flag.String("workload", "", "workload: seq-stream, zipf-point or tenants-rw")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 10, "host seconds to measure for")
	trace := flag.Int("trace", 0, "0: timed run, end-to-end metrics; 1: traced run, per-layer metrics")
	flag.Parse()
	w, err := findWorkload(*name)
	if err == nil && (*trace < 0 || *trace > 1) {
		err = errors.New("--trace must be 0 or 1")
	}
	if err == nil && *seconds < 1 {
		err = errors.New("--seconds must be at least 1")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	res, err := run(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run measures one workload for at least d of host time, in whole
// passes. Each pass builds a fresh system and drives the same input, so
// every pass must reproduce the same virtual outputs. A traced run
// alternates untraced and traced passes under a CPU profile.
func run(w workload, seed int64, d time.Duration, traced bool) (*result, error) {
	in := w.gen(seed)
	var prof *cpuProfile
	if traced {
		var err error
		if prof, err = startCPUProfile(); err != nil {
			return nil, err
		}
		defer prof.remove()
	}
	start := time.Now()
	var passes []*passResult
	var problems []string
	for i := 0; ; i++ {
		p := newPass(traced && i%2 == 1)
		if err := w.run(p, in); err != nil {
			problems = append(problems, fmt.Sprintf("pass %d: %v", i, err))
		}
		p.finish(w.name, seed)
		r := p.r
		if r.failed+r.warmFailed > 0 {
			problems = append(problems, fmt.Sprintf("pass %d: %d failed operations, first: %s",
				i, r.failed+r.warmFailed, r.firstFailure))
		}
		if i == 0 && p.ref != nil {
			if err := checkContent(w.name, p.ref); err != nil {
				problems = append(problems, err.Error())
			}
		}
		passes = append(passes, r)
		if r.digest != passes[0].digest {
			problems = append(problems, fmt.Sprintf("pass %d (traced %v): digest %#x, pass 0 %#x",
				i, r.traced, r.digest, passes[0].digest))
		}
		if r.traced && len(passes) > 2 && r.traceDigest != passes[1].traceDigest {
			problems = append(problems, fmt.Sprintf("pass %d: trace digest %#x, pass 1 %#x",
				i, r.traceDigest, passes[1].traceDigest))
		}
		if len(problems) > 0 || (len(passes) >= 2 && time.Since(start) >= d) {
			break
		}
	}
	res := &result{Metrics: map[string]metric{}}
	for _, r := range passes {
		res.Attempted += r.ops + r.warmOps
		res.Failed += r.failed + r.warmFailed
	}
	if traced {
		shares, err := prof.stop()
		if err != nil {
			return nil, err
		}
		if err := layerMetrics(res.Metrics, passes, shares); err != nil {
			problems = append(problems, err.Error())
		}
	} else {
		endToEndMetrics(res.Metrics, passes)
	}
	res.Correct = len(problems) == 0
	for _, s := range problems {
		fmt.Fprintln(os.Stderr, "perfbench:", w.name, s)
	}
	fmt.Printf("perfbench: %s seed %d: %d passes, digest %#x\n", w.name, seed, len(passes), passes[0].digest)
	return res, nil
}
