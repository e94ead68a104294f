// Command dpbench regenerates the tables and figures of "Principled
// Evaluation of Differentially Private Algorithms using DPBench" (Hay et
// al., SIGMOD 2016) from this repository's from-scratch implementations,
// and serves budget-metered DP range queries over HTTP.
//
// Usage:
//
//	dpbench -experiment fig1a            # quick grid (seconds..minutes)
//	dpbench -experiment tab3b -full      # the paper's full grid (slow)
//	dpbench -experiment all -workers 8   # bound the experiment worker pool
//	dpbench -experiment fig1a -n 1024    # 1D grid at another domain size
//	dpbench -list                        # print the mechanism registry
//	dpbench serve -addr :8080 \
//	  -datasets ADULT,TRACE -mechanisms IDENTITY,HB,DAWA -eps 0.05,0.1
//
// The grid runs on a bounded worker pool (default: GOMAXPROCS); output is
// bit-identical for every -workers value, including 1. The -audit flag
// verifies the privacy-budget ledger of every trial without changing any
// output value. Interrupting a long run (Ctrl-C) cancels it cleanly between
// cells. The -cpuprofile and -memprofile flags write pprof profiles
// covering the whole run.
//
// The serve subcommand precompiles one release plan per (dataset,
// mechanism, epsilon) cell and answers range-query workloads over
// HTTP/JSON, charging each request's epsilon to the caller's API-key budget
// and refusing (HTTP 429) any request that would overspend it. With
// -ledger <path> every charge is group-committed to an append-only,
// tamper-evident WAL before noise is drawn: a restart replays the log so
// spent budget survives crashes, /v1/root publishes a Merkle root over the
// committed history, and /v1/proof returns inclusion proofs. On a store
// write failure the server fails closed (503, degraded /healthz). See the
// README's walkthrough.
//
// Experiments: fig1a fig1b fig2a fig2b fig2c tab3a tab3b find6 find7 find8
// find9 find10 regret1d regret2d exch cons all.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"
	"time"

	"dpbench/internal/dataset"
	"dpbench/internal/experiments"
	"dpbench/internal/serve"
	"dpbench/release"
)

func main() {
	args := os.Args[1:]
	if len(args) > 0 && args[0] == "serve" {
		os.Exit(runServe(args[1:]))
	}
	os.Exit(runExperiments(args))
}

// artifact is one entry of the -experiment table, which lists the paper's
// artifacts in the order 'all' runs them. domain1D marks the experiments
// whose grid honours the -n override; the rest are 2D or fix their own
// domains, so a silently ignored -n would mislead.
type artifact struct {
	name     string
	domain1D bool
	run      func(experiments.Options) error
}

var artifacts = []artifact{
	{"fig1a", true, func(o experiments.Options) error { _, err := experiments.Fig1a(o); return err }},
	{"fig1b", false, func(o experiments.Options) error { _, err := experiments.Fig1b(o); return err }},
	{"fig2a", true, experiments.Fig2a},
	{"fig2b", false, experiments.Fig2b},
	{"fig2c", false, experiments.Fig2c},
	{"tab3a", true, func(o experiments.Options) error { _, err := experiments.Table3(o, false); return err }},
	{"tab3b", false, func(o experiments.Options) error { _, err := experiments.Table3(o, true); return err }},
	{"find6", true, func(o experiments.Options) error { _, err := experiments.Finding6(o); return err }},
	{"find7", true, func(o experiments.Options) error { _, err := experiments.Finding7(o); return err }},
	{"find8", true, func(o experiments.Options) error { _, err := experiments.Finding8(o); return err }},
	{"find9", true, func(o experiments.Options) error { _, err := experiments.Finding9(o); return err }},
	{"find10", true, experiments.Finding10},
	{"regret1d", true, func(o experiments.Options) error { _, err := experiments.Regret(o, false); return err }},
	{"regret2d", false, func(o experiments.Options) error { _, err := experiments.Regret(o, true); return err }},
	{"exch", false, experiments.Exchangeability},
	{"cons", false, experiments.Consistency},
}

// runExperiments holds the real main so deferred cleanups (profile flushes)
// execute before the process exits with a status code.
func runExperiments(args []string) int {
	fs := flag.NewFlagSet("dpbench", flag.ExitOnError)
	var (
		experiment = fs.String("experiment", "fig1a", "which paper artifact to regenerate (or 'all')")
		full       = fs.Bool("full", false, "run the paper's full grid instead of the quick one")
		seed       = fs.Int64("seed", 20160626, "random seed")
		workers    = fs.Int("workers", runtime.GOMAXPROCS(0), "worker pool size for the experiment grid (results are identical for any value)")
		domain1D   = fs.Int("n", 0, fmt.Sprintf("override the 1D domain size; must divide %d (0 = the grid's default)", dataset.MaxDomain1D))
		audit      = fs.Bool("audit", false, "verify the privacy-budget ledger after every trial (output is identical; fails fast on any budget-math bug)")
		list       = fs.Bool("list", false, "print the mechanism registry (name, dims, data dependence, composition) and exit")
		cpuProfile = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = fs.String("memprofile", "", "write an allocation profile to this file on exit")
	)
	fs.Parse(args)

	if *list {
		printRegistry()
		return 0
	}

	// Validate flag combinations up front with actionable messages rather
	// than silently running something other than what was asked for.
	if *workers < 1 {
		fmt.Fprintf(os.Stderr, "-workers must be >= 1, got %d; omit the flag to use all %d cores\n", *workers, runtime.GOMAXPROCS(0))
		return 2
	}
	var names, honored []string
	var selected []artifact
	for _, e := range artifacts {
		names = append(names, e.name)
		if e.domain1D {
			honored = append(honored, e.name)
		}
		if *experiment == "all" || *experiment == e.name {
			selected = append(selected, e)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(os.Stderr, "unknown experiment %q; choose one of %v or 'all'\n", *experiment, names)
		return 2
	}
	if *domain1D < 0 {
		fmt.Fprintf(os.Stderr, "-n must be positive, got %d\n", *domain1D)
		return 2
	}
	if *domain1D > 0 && *experiment != "all" && !selected[0].domain1D {
		fmt.Fprintf(os.Stderr, "-n only affects 1D-grid experiments (%s all); %q would silently ignore it\n",
			strings.Join(honored, " "), *experiment)
		return 2
	}
	// The generator coarsens a 4096-bin source shape, so it can serve only
	// the domain sizes that divide it.
	if *domain1D > 0 && dataset.MaxDomain1D%*domain1D != 0 {
		var allowed []string
		for n := 1; n <= dataset.MaxDomain1D; n++ {
			if dataset.MaxDomain1D%n == 0 {
				allowed = append(allowed, strconv.Itoa(n))
			}
		}
		fmt.Fprintf(os.Stderr, "-n must divide the generator's %d-bin source domain (one of %s), got %d\n",
			dataset.MaxDomain1D, strings.Join(allowed, " "), *domain1D)
		return 2
	}
	if *cpuProfile != "" && *cpuProfile == *memProfile {
		fmt.Fprintf(os.Stderr, "-cpuprofile and -memprofile point at the same file %q; the second write would clobber the first\n", *cpuProfile)
		return 2
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // flush pending frees so the heap profile is settled
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			}
		}()
	}

	// Ctrl-C cancels the grid between cells instead of killing mid-write.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	opt := experiments.Options{Out: os.Stdout, Quick: !*full, Seed: *seed, Workers: *workers, Audit: *audit, Domain1D: *domain1D, Ctx: ctx}

	for _, e := range selected {
		start := time.Now()
		fmt.Printf("=== %s ===\n", e.name)
		if err := e.run(opt); err != nil {
			if errors.Is(err, context.Canceled) {
				fmt.Fprintf(os.Stderr, "%s: interrupted\n", e.name)
				return 130
			}
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.name, err)
			return 1
		}
		fmt.Printf("(%s completed in %v)\n", e.name, time.Since(start).Round(time.Millisecond))
	}
	return 0
}

// printRegistry renders the public mechanism registry (dpbench -list).
func printRegistry() {
	fmt.Printf("%-10s %-6s %-16s %s\n", "MECHANISM", "DIMS", "DATA-DEPENDENT", "COMPOSITION")
	for _, info := range release.List() {
		dims := make([]string, len(info.Dims))
		for i, d := range info.Dims {
			dims[i] = strconv.Itoa(d) + "D"
		}
		dep := "no"
		if info.DataDependent {
			dep = "yes"
		}
		fmt.Printf("%-10s %-6s %-16s %s\n", info.Name, strings.Join(dims, ","), dep, info.Composition)
	}
}

// runServe starts the budget-metered DP query service (dpbench serve).
func runServe(args []string) int {
	fs := flag.NewFlagSet("dpbench serve", flag.ExitOnError)
	var (
		addr        = fs.String("addr", ":8080", "listen address")
		datasets    = fs.String("datasets", "ADULT", "comma-separated benchmark datasets to register")
		mechs       = fs.String("mechanisms", "IDENTITY,HB,DAWA", "comma-separated mechanisms to precompile")
		epsList     = fs.String("eps", "0.05,0.1", "comma-separated per-query privacy budgets")
		domain1D    = fs.Int("domain", 1024, "1D domain size")
		side2D      = fs.Int("side", 64, "2D grid side")
		scale       = fs.Int("scale", 100_000, "tuples drawn per dataset")
		seed        = fs.Int64("seed", 20160626, "data-generator seed (noise streams are crypto-seeded)")
		keyBudget   = fs.Float64("key-budget", 1.0, "total epsilon each API key may spend")
		totalBudget = fs.Float64("total-budget", 0, "total epsilon spendable per dataset across all keys (0 = 10x key-budget)")
		allowSeeded = fs.Bool("allow-seeded-queries", false, "accept client-pinned noise seeds (test/replay only: seeded releases are denoisable)")
		ledgerPath  = fs.String("ledger", "", "path of the durable budget ledger WAL; empty keeps accounting in-memory")
	)
	fs.Parse(args)

	epsilons, err := parseFloats(*epsList)
	if err != nil {
		fmt.Fprintf(os.Stderr, "-eps: %v\n", err)
		return 2
	}
	srv, err := serve.New(serve.Config{
		Datasets:           splitCSV(*datasets),
		Mechanisms:         splitCSV(*mechs),
		Epsilons:           epsilons,
		Domain1D:           *domain1D,
		Side2D:             *side2D,
		Scale:              *scale,
		Seed:               *seed,
		KeyBudget:          *keyBudget,
		TotalBudget:        *totalBudget,
		AllowSeededQueries: *allowSeeded,
		LedgerPath:         *ledgerPath,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "%v\n", err)
		return 2
	}
	defer srv.Close()
	if records, truncated, ok := srv.RecoveryInfo(); ok {
		fmt.Printf("serve: ledger %s recovered %d committed spend(s)", *ledgerPath, records)
		if truncated > 0 {
			fmt.Printf(", discarded %d torn-tail byte(s)", truncated)
		}
		fmt.Println()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	httpSrv := newHTTPServer(*addr, srv.Handler())
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	fmt.Printf("dpbench serve: listening on %s (datasets=%s mechanisms=%s eps=%s key-budget=%g)\n",
		*addr, *datasets, *mechs, *epsList, *keyBudget)

	select {
	case err := <-errc:
		fmt.Fprintf(os.Stderr, "serve: %v\n", err)
		return 1
	case <-ctx.Done():
		shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(shutCtx); err != nil {
			fmt.Fprintf(os.Stderr, "serve: shutdown: %v\n", err)
			return 1
		}
		fmt.Println("serve: drained and stopped")
		return 0
	}
}

// Time limits on each serve connection. A query body is read whole before
// it is parsed, so without them a client that trickles its body holds a
// handler and its buffer for as long as it likes. Each is generous: a 1 MiB
// body on a slow link, and a response held up by a stalled ledger fsync.
const (
	readHeaderTimeout = 10 * time.Second
	readTimeout       = 30 * time.Second
	writeTimeout      = 60 * time.Second
	idleTimeout       = 120 * time.Second
)

// newHTTPServer returns the serve subcommand's HTTP server for h on addr.
func newHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		WriteTimeout:      writeTimeout,
		IdleTimeout:       idleTimeout,
	}
}

func splitCSV(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func parseFloats(s string) ([]float64, error) {
	var out []float64
	for _, p := range splitCSV(s) {
		v, err := strconv.ParseFloat(p, 64)
		if err != nil {
			return nil, fmt.Errorf("parsing %q: %w", p, err)
		}
		out = append(out, v)
	}
	return out, nil
}
