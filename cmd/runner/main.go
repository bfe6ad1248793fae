// Command runner drives the paper's full evaluation through the parallel
// experiment harness: every table/figure is a registered job, executed by a
// bounded worker pool with a content-addressed result cache, so re-runs are
// incremental — only jobs whose configuration or code changed recompute.
// `run` prints every successful job's result to stdout in registration
// order: figure rows for the experiment jobs, one `ok` line per check for
// the validation jobs.
//
//	runner list                  # show the registered jobs
//	runner run [flags]           # execute (a subset of) the registry
//	runner status [flags]        # summarize the last run's manifest + cache
//
// Typical usage:
//
//	go run ./cmd/runner run -only 'table1,fig*'   # the paper's tables and figures
//	go run ./cmd/runner run -only 'validate-*'    # the cross-model validation sweep
//	go run ./cmd/runner run -j 8 -only 'fig5*'
//	go run ./cmd/runner run            # everything; 2nd invocation = all hits
//	go run ./cmd/runner status
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"time"

	"beyondft/internal/experiments"
	"beyondft/internal/harness"
	"beyondft/internal/validate"
)

const (
	defaultCacheDir = ".harness-cache"
	defaultOutDir   = "runs/latest"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "list":
		err = cmdList(os.Args[2:])
	case "run":
		err = cmdRun(os.Args[2:])
	case "status":
		err = cmdStatus(os.Args[2:])
	case "-h", "-help", "--help", "help":
		usage()
		return
	default:
		fmt.Fprintf(os.Stderr, "runner: unknown command %q\n\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "runner: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage: runner <command> [flags]

commands:
  list     list the registered experiment jobs
  run      execute jobs through the parallel harness and print their results
           -j N         worker pool size (default GOMAXPROCS)
           -only GLOBS  run only jobs matching any of the comma-separated
                        globs (e.g. 'table1,fig5*'); a glob that matches
                        no job is an error
           -cache DIR   content-addressed result cache (default %s)
           -no-cache    disable the cache (always recompute)
           -out DIR     artifacts + manifest.json (default %s)
           -full        paper-scale configuration (slow)
           -seed N      base random seed (default 1)
           -timeout D   stop dispatching new jobs after D; already-running
                        jobs finish (default none)
           -trace       record + print a span tree per job (cache-probe /
                        compute / encode stages; persisted in manifest.json)
  status   summarize a previous run
           -out DIR     run directory to read (default %s)
           -cache DIR   cache to report stats for (default %s)
           -prune-max-bytes N
                        evict oldest cache entries until the cache fits in
                        N bytes, logging each eviction (-1 = don't prune)
`, defaultCacheDir, defaultOutDir, defaultOutDir, defaultCacheDir)
}

// config assembles the experiment configuration from the shared flags.
func config(full bool, seed int64) experiments.Config {
	cfg := experiments.DefaultConfig()
	if full {
		cfg = experiments.PaperConfig()
	}
	cfg.Seed = seed
	return cfg
}

// registry is the figure/table registry plus the cross-model validation
// sweep, the what-if scenario sweeps, the scale-tier simulation and the
// design searches, so `runner run` executes and caches all of them through
// the same pool. cache (may be nil) feeds the what-if jobs' per-scenario
// entries, the scale job's mid-simulation stage checkpoints and the search
// jobs' per-candidate GK evaluations, making interrupted runs resumable.
func registry(cfg experiments.Config, full bool, cache *harness.Cache) *harness.Registry {
	reg := cfg.Registry()
	for _, j := range validate.Jobs(cfg.Seed, full) {
		reg.MustRegister(j)
	}
	for _, j := range cfg.WhatifJobs(cache) {
		reg.MustRegister(j)
	}
	for _, j := range cfg.SimScaleJobs(cache) {
		reg.MustRegister(j)
	}
	for _, j := range cfg.SearchJobs(cache) {
		reg.MustRegister(j)
	}
	return reg
}

func cmdList(args []string) error {
	fs := flag.NewFlagSet("list", flag.ExitOnError)
	full := fs.Bool("full", false, "paper-scale configuration")
	seed := fs.Int64("seed", 1, "base random seed")
	fs.Parse(args)

	reg := registry(config(*full, *seed), *full, nil)
	fmt.Printf("%d registered jobs (spec: %s)\n", reg.Len(), config(*full, *seed).Spec())
	for _, j := range reg.Jobs() {
		fmt.Printf("  %-14s key=%.12s…\n", j.Name, harness.Key(j.Name, j.Spec, experiments.CodeSalt))
	}
	return nil
}

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	workers := fs.Int("j", runtime.GOMAXPROCS(0), "worker pool size")
	only := fs.String("only", "", "comma-separated globs of job names to run (union)")
	cacheDir := fs.String("cache", defaultCacheDir, "result cache directory")
	noCache := fs.Bool("no-cache", false, "disable the result cache")
	outDir := fs.String("out", defaultOutDir, "output directory for artifacts and manifest")
	full := fs.Bool("full", false, "paper-scale configuration (slow)")
	seed := fs.Int64("seed", 1, "base random seed")
	timeout := fs.Duration("timeout", 0, "stop dispatching new jobs after this long; running jobs finish (0 = none)")
	trace := fs.Bool("trace", false, "record per-job span trees (printed after the run, persisted in manifest.json)")
	fs.Parse(args)

	cfg := config(*full, *seed)
	var cache *harness.Cache
	if !*noCache {
		var err error
		if cache, err = harness.OpenCache(*cacheDir); err != nil {
			return err
		}
	}
	reg := registry(cfg, *full, cache)
	jobs, err := reg.Match(*only)
	if err != nil {
		return err
	}
	if len(jobs) == 0 {
		return fmt.Errorf("no jobs match -only=%q", *only)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	opt := harness.Options{
		Workers:  *workers,
		Salt:     experiments.CodeSalt,
		OutDir:   *outDir,
		Progress: os.Stderr,
		Trace:    *trace,
		Cache:    cache,
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		return err
	}

	rep, err := harness.Run(ctx, jobs, opt)
	if err != nil {
		return err
	}
	var cd string
	if opt.Cache != nil {
		cd = opt.Cache.Dir()
	}
	mp, err := harness.WriteManifest(*outDir, rep, cd)
	if err != nil {
		return err
	}
	// Registration order regardless of completion order; failed jobs are
	// reported by rep.Err below.
	for _, jr := range rep.Jobs {
		if jr.Err == "" {
			printResult(os.Stdout, jr.Value)
		}
	}
	if *trace {
		for _, jr := range rep.Jobs {
			jr.Trace.Fprint(os.Stdout)
		}
	}
	fmt.Fprintf(os.Stderr, "runner: manifest=%s artifacts=%s\n", mp, *outDir)
	return rep.Err()
}

// printResult writes one job's result: a figure's rows, or a validation
// sweep's checks one per line.
func printResult(w io.Writer, v any) {
	switch r := v.(type) {
	case *experiments.JobResult:
		for _, f := range r.Figures {
			f.Fprint(w)
		}
	case []validate.Check:
		for _, c := range r {
			fmt.Fprintf(w, "ok   %-40s %s\n", c.Name, c.Detail)
		}
	}
}

func cmdStatus(args []string) error {
	fs := flag.NewFlagSet("status", flag.ExitOnError)
	outDir := fs.String("out", defaultOutDir, "run directory to read")
	cacheDir := fs.String("cache", defaultCacheDir, "cache directory to report stats for")
	prune := fs.Int64("prune-max-bytes", -1, "prune the cache down to this many bytes, oldest entries first (-1 = don't prune)")
	fs.Parse(args)

	m, err := harness.ReadManifest(*outDir)
	if err != nil {
		return err
	}
	fmt.Printf("run of %s (workers=%d, salt=%s)\n", m.CreatedAt.Format(time.RFC3339), m.Workers, m.Salt)
	fmt.Printf("  jobs=%d hits=%d misses=%d errors=%d wall=%s\n",
		len(m.Jobs), m.CacheHits, m.CacheMisses, m.Errors,
		(time.Duration(m.WallClockMs) * time.Millisecond).Round(time.Millisecond))

	// Slowest jobs first: the ones worth optimizing or sharding next.
	jobs := append([]harness.JobReport(nil), m.Jobs...)
	sort.Slice(jobs, func(i, j int) bool { return jobs[i].DurationMs > jobs[j].DurationMs })
	show := len(jobs)
	if show > 5 {
		show = 5
	}
	fmt.Printf("  slowest jobs:\n")
	for _, jr := range jobs[:show] {
		state := "computed"
		if jr.Cached {
			state = "cached"
		}
		if jr.Err != "" {
			state = "ERROR: " + jr.Err
		}
		fmt.Printf("    %-14s %8s  %s (%d artifacts)\n", jr.Name,
			(time.Duration(jr.DurationMs) * time.Millisecond).Round(time.Millisecond),
			state, len(jr.Artifacts))
	}

	c, err := harness.OpenCache(*cacheDir)
	if err != nil {
		return err
	}
	n, bytes, err := c.Stats()
	if err != nil {
		return err
	}
	avg := int64(0)
	if n > 0 {
		avg = bytes / int64(n)
	}
	fmt.Printf("  cache %s: %d entries, %.1f KiB (avg %d B/entry)\n",
		*cacheDir, n, float64(bytes)/1024, avg)

	if *prune >= 0 {
		logf := func(format string, a ...any) { fmt.Fprintf(os.Stderr, format+"\n", a...) }
		evicted, freed, err := c.Prune(*prune, logf)
		if err != nil {
			return err
		}
		fmt.Printf("  pruned to %d bytes: evicted %d entries, freed %.1f KiB\n",
			*prune, evicted, float64(freed)/1024)
	}
	return nil
}
