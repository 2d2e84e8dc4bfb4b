// Command crossbench regenerates the paper's tables and figures.
//
// Usage:
//
//	crossbench -list
//	crossbench -exp fig7a [-scale 8] [-seed 1] [-csv out.csv]
//	crossbench -exp all [-quick]
//	crossbench -exp overload -admin localhost:9090
//
// -admin serves the live observability plane while the run lasts, for
// the system the running experiment built last (cells swap under one
// listener): /metrics (Prometheus text), /scorecards (effectiveness JSON
// with interval deltas, ?tenant= / ?inode=), /predictors (the live
// per-inode predictor-arm table), /tiers (per-backend occupancy and the
// extent heat table), /tracez (slowest retained spans), and
// /debug/pprof. The listener drains with a bounded timeout on exit.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	crossprefetch "repro"
	"repro/internal/admin"
	"repro/internal/blockdev"
	"repro/internal/crosslib"
	"repro/internal/experiments"
	"repro/internal/telemetry"
)

// writeProfile dumps a named runtime profile ("mutex", "block") to path.
func writeProfile(name, path string) {
	f, err := os.Create(path)
	if err == nil {
		err = pprof.Lookup(name).WriteTo(f, 0)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s profile: %v\n", name, err)
		os.Exit(1)
	}
	fmt.Printf("%s profile: wrote %s (inspect with `go tool pprof %s`)\n", name, path, path)
}

// startAdmin brings up the live admin plane on addr, reading whichever
// system the running experiment built last. The returned stop function
// drains the listener with a bounded timeout.
func startAdmin(addr string) func() {
	live := func() *crossprefetch.System { return experiments.Live() }
	srv, err := admin.Start(addr, admin.Config{
		Snapshot: func() *telemetry.Snapshot {
			if s := live(); s != nil {
				return s.Telemetry().Snapshot()
			}
			return nil
		},
		Scorecard: func() *telemetry.ScorecardSnapshot {
			if s := live(); s != nil {
				return s.Scorecard().Snapshot()
			}
			return nil
		},
		Tracer: func() *telemetry.Tracer {
			if s := live(); s != nil {
				return s.Tracer()
			}
			return nil
		},
		Predictors: func() []crosslib.PredictorRow {
			if s := live(); s != nil {
				return s.Lib().PredictorTable()
			}
			return nil
		},
		Tiers: func() *blockdev.Stack {
			if s := live(); s != nil {
				return s.Stack()
			}
			return nil
		},
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "crossbench:", err)
		os.Exit(1)
	}
	fmt.Printf("admin plane on http://%s (/metrics /scorecards /predictors /tiers /tracez /debug/pprof)\n", srv.Addr())
	return func() {
		if err := srv.Shutdown(); err != nil {
			fmt.Fprintln(os.Stderr, "crossbench: admin shutdown:", err)
		}
	}
}

// telemetryRecord is one audited system in the -telemetry-json output.
type telemetryRecord struct {
	Experiment string              `json:"experiment"`
	System     string              `json:"system"`
	Audit      string              `json:"audit"` // "ok" or the violation list
	Snapshot   *telemetry.Snapshot `json:"snapshot"`
}

func main() {
	var (
		exp     = flag.String("exp", "", "experiment ID (see -list), or \"all\"")
		list    = flag.Bool("list", false, "list available experiments")
		scale   = flag.Int64("scale", 0, "capacity divisor (0 = experiment default)")
		quick   = flag.Bool("quick", false, "smoke-test sizes")
		seed    = flag.Int64("seed", 1, "random seed")
		csv     = flag.String("csv", "", "also write results as CSV to this file")
		tel     = flag.Bool("telemetry", false, "record and audit cross-layer telemetry per system")
		telJSON = flag.String("telemetry-json", "", "write telemetry snapshots as JSON to this file (implies -telemetry)")

		trace       = flag.String("trace", "", "write sampled spans as Chrome trace-event JSON (Perfetto-loadable) to this file (implies -telemetry)")
		traceSample = flag.Int64("trace-sample", 1, "trace 1-in-N top-level operations")
		traceInode  = flag.Bool("trace-per-inode", false, "sample whole inodes instead of 1-in-N operations")
		traceReport = flag.Bool("trace-report", false, "print the critical-path report for retained slow spans (implies -trace sampling)")
		prom        = flag.String("prom", "", "write the last audited system's telemetry as Prometheus text exposition to this file (implies -telemetry)")

		mutexProf = flag.String("mutexprofile", "", "write a host mutex-contention profile (pprof) to this file")
		blockProf = flag.String("blockprofile", "", "write a host blocking profile (pprof) to this file")

		plug        = flag.Bool("plug", false, "enable the block-layer submission scheduler (plugging/merging) for every system")
		qd          = flag.Int("qd", 0, "device queue depth under -plug (0 = default 32)")
		mergeWindow = flag.Int64("merge-window", 0, "max merged command bytes under -plug (0 = default 8MB)")

		adminAddr = flag.String("admin", "", "serve the live admin plane (/metrics /scorecards /predictors /tiers /tracez /debug/pprof) on this address while the run lasts")
	)
	flag.Parse()

	// Host-lock profiling: the virtual RWLedgers model the paper's lock
	// costs, but these profiles expose where the *simulator's* own mutexes
	// contend — the hot-path sharding work is validated against them.
	if *mutexProf != "" {
		runtime.SetMutexProfileFraction(5)
		defer writeProfile("mutex", *mutexProf)
	}
	if *blockProf != "" {
		runtime.SetBlockProfileRate(1000)
		defer writeProfile("block", *blockProf)
	}

	if *list || *exp == "" {
		fmt.Println("available experiments:")
		for _, id := range experiments.IDs() {
			fmt.Printf("  %-7s %s\n", id, experiments.Describe(id))
		}
		if *exp == "" && !*list {
			os.Exit(2)
		}
		return
	}

	ids := []string{*exp}
	if *exp == "all" {
		ids = experiments.IDs()
	}

	var csvOut *os.File
	if *csv != "" {
		f, err := os.Create(*csv)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		csvOut = f
	}

	if *telJSON != "" || *prom != "" || *adminAddr != "" {
		*tel = true
	}
	tracing := *trace != "" || *traceReport
	if tracing {
		*tel = true
	}
	if *plug || *qd > 0 || *mergeWindow > 0 {
		experiments.EnableBlockSched(&experiments.SchedConfig{
			Plug:             *plug,
			QueueDepth:       *qd,
			MergeWindowBytes: *mergeWindow,
		})
	}
	experiments.EnableTelemetry(*tel)
	if tracing {
		experiments.EnableTracing(&experiments.TraceConfig{
			SampleEvery: *traceSample,
			PerInode:    *traceInode,
			Seed:        *seed,
		})
	}

	if *adminAddr != "" {
		defer startAdmin(*adminAddr)()
	}

	var telRecords []telemetryRecord
	var traceProcs []telemetry.TraceProcess
	var lastSnapshot *telemetry.Snapshot
	opts := experiments.Options{Scale: *scale, Quick: *quick, Seed: *seed}
	for _, id := range ids {
		run, err := experiments.Get(id)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		start := time.Now()
		tbl, err := run(opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", id, err)
			os.Exit(1)
		}
		tbl.Note("wall time %s", time.Since(start).Round(time.Millisecond))
		tbl.Print(os.Stdout)
		if csvOut != nil {
			fmt.Fprintf(csvOut, "# %s: %s\n", tbl.ID, tbl.Title)
			if err := tbl.WriteCSV(csvOut); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
		if *tel {
			for _, r := range experiments.DrainTelemetry() {
				audit := "ok"
				if r.Audit != nil {
					audit = r.Audit.Error()
				}
				fmt.Printf("telemetry %s %s: audit %s", id, r.Label, audit)
				if r.Snapshot != nil {
					fmt.Printf(" (prefetch effectiveness %.2f, %d events)",
						r.Snapshot.PrefetchEffectiveness(), r.Snapshot.EventsTotal)
				}
				fmt.Println()
				telRecords = append(telRecords, telemetryRecord{
					Experiment: id, System: r.Label, Audit: audit, Snapshot: r.Snapshot,
				})
				if r.Snapshot != nil {
					lastSnapshot = r.Snapshot
				}
				if r.Tracer != nil {
					traceProcs = append(traceProcs, telemetry.TraceProcess{
						Name: id + " " + r.Label, Tracer: r.Tracer,
					})
				}
			}
		}
	}

	if *trace != "" {
		f, err := os.Create(*trace)
		if err == nil {
			err = telemetry.WriteChromeTrace(f, traceProcs)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("trace: wrote %d process(es) to %s (load in Perfetto: ui.perfetto.dev)\n",
			len(traceProcs), *trace)
	}
	if *traceReport {
		if err := telemetry.WriteCriticalPathReport(os.Stdout, traceProcs); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	if *prom != "" {
		if lastSnapshot == nil {
			fmt.Fprintln(os.Stderr, "-prom: no telemetry snapshot recorded")
			os.Exit(1)
		}
		f, err := os.Create(*prom)
		if err == nil {
			err = lastSnapshot.WritePrometheus(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}

	if *telJSON != "" {
		data, err := json.MarshalIndent(telRecords, "", "  ")
		if err == nil {
			err = os.WriteFile(*telJSON, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
}
