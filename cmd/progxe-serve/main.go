// Command progxe-serve runs the progressive query service: an HTTP server
// that registers relations (synthetic specs or CSV uploads), evaluates
// PREFERRING-dialect SkyMapJoin queries with a per-request engine choice,
// and streams each skyline result to the client the moment the engine
// proves it final — NDJSON by default, Server-Sent Events on request.
//
// Usage:
//
//	progxe-serve -addr :8080
//	progxe-serve -addr :8080 -demo                 # preload R, T (anti-correlated pair)
//	progxe-serve -load Suppliers=suppliers.csv \
//	             -load Transporters=transporters.csv
//
// Then (see README.md for the full walkthrough):
//
//	curl -s localhost:8080/v1/query -d '{
//	  "query": "SELECT (R.a0+T.a0) AS x, (R.a1+T.a1) AS y FROM R R, T T WHERE R.jkey = T.jkey PREFERRING LOWEST(x) AND LOWEST(y)"
//	}'
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"progxe/internal/datagen"
	"progxe/internal/feed"
	"progxe/internal/relation"
	"progxe/internal/server"
)

func main() {
	if err := run(os.Args[1:], nil); err != nil {
		fmt.Fprintln(os.Stderr, "progxe-serve:", err)
		os.Exit(1)
	}
}

// run builds and serves the service. When ready is non-nil it receives the
// bound listen address once the server is accepting connections (used by
// tests binding port 0).
func run(args []string, ready chan<- string) error {
	fs := flag.NewFlagSet("progxe-serve", flag.ContinueOnError)
	var (
		addr       = fs.String("addr", ":8080", "listen address")
		maxRuns    = fs.Int("max-concurrent", 0, "max concurrent engine runs (0 = default 8); excess queries get 429")
		runTimeout = fs.Duration("run-timeout", 0, "per-run wall-clock cap (0 = default 60s, negative = unlimited)")
		writeStall = fs.Duration("write-stall", 0, "per-record write deadline for stalled clients (0 = default 30s, negative = none)")
		maxWorkers = fs.Int("max-workers", 0, "cap for the per-request \"workers\" knob (0 = default GOMAXPROCS, negative = disable parallel runs)")
		maxUpload  = fs.Int64("max-upload-bytes", 0, "CSV upload size cap in bytes (0 = default 64 MiB)")
		defEngine  = fs.String("engine", "", "default engine for queries that name none (default progxe)")
		demo       = fs.Bool("demo", false, "preload a demo workload: anti-correlated pair R, T (1000 rows, 3 dims)")
		pprofAddr  = fs.String("pprof", os.Getenv("PROGXE_PPROF"), "serve net/http/pprof on this address (e.g. localhost:6060); empty = disabled")
		logFormat  = fs.String("log-format", "text", "structured run-log format: text or json")
		slowRun    = fs.Duration("slow-run", 0, "log runs slower than this at WARN level (0 = disabled)")
		runLogSize = fs.Int("run-log", 0, "recent runs retained for /v1/runs (0 = default 128, negative = disabled)")
		planCache  = fs.Int("plan-cache", 0, "compiled query plans cached across runs (0 = default 128, negative = disabled)")
		coalesce   = fs.Int("coalesce", server.DefaultCoalesceReplay, "replay window in records per run; concurrent identical queries share one engine run and a client further behind than this is cut off (0 or negative = default)")
		loads      []string
		follows    []string
	)
	fs.Func("load", "preload a relation from CSV as name=path (repeatable)", func(v string) error {
		loads = append(loads, v)
		return nil
	})
	fs.Func("follow", "tail a change-log file (NDJSON or CSV change lines) into a relation as name=path (repeatable); appended inserts/deletes feed live subscriptions", func(v string) error {
		follows = append(follows, v)
		return nil
	})
	if err := fs.Parse(args); err != nil {
		return err
	}

	var handler slog.Handler
	switch *logFormat {
	case "text":
		handler = slog.NewTextHandler(os.Stderr, nil)
	case "json":
		handler = slog.NewJSONHandler(os.Stderr, nil)
	default:
		return fmt.Errorf("-log-format wants text or json, got %q", *logFormat)
	}
	logger := slog.New(handler)

	srv := server.New(server.Config{
		MaxConcurrentRuns: *maxRuns,
		RunTimeout:        *runTimeout,
		WriteStallTimeout: *writeStall,
		MaxUploadBytes:    *maxUpload,
		MaxRunWorkers:     *maxWorkers,
		DefaultEngine:     *defEngine,
		Logger:            logger,
		SlowRunThreshold:  *slowRun,
		RunLogSize:        *runLogSize,
		PlanCacheSize:     *planCache,
		CoalesceReplay:    *coalesce,
	})

	if *demo {
		r, t, err := datagen.GeneratePair(datagen.Spec{
			N: 1000, Dims: 3, Distribution: datagen.AntiCorrelated,
			Selectivity: 0.01, Seed: 42,
		})
		if err != nil {
			return err
		}
		for _, rel := range []*relation.Relation{r, t} {
			if err := srv.Catalog().Register(rel); err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "progxe-serve: preloaded %s (%d rows)\n", rel.Schema.Name, rel.Len())
		}
	}
	for _, l := range loads {
		name, path, ok := strings.Cut(l, "=")
		if !ok {
			return fmt.Errorf("-load wants name=path, got %q", l)
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		rel, err := relation.ReadCSV(name, f)
		f.Close()
		if err != nil {
			return err
		}
		if err := srv.Catalog().Register(rel); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "progxe-serve: loaded %s (%d rows) from %s\n", name, rel.Len(), path)
	}

	// File-tailing change connectors: each -follow spawns a feed.TailSource
	// whose changes are applied to the catalog (and fanned out to live
	// subscriptions) as they are appended. Bad lines and rejected changes are
	// logged and skipped — a feed file must not be able to stop the tail.
	followCtx, stopFollow := context.WithCancel(context.Background())
	defer stopFollow()
	for _, fl := range follows {
		name, path, ok := strings.Cut(fl, "=")
		if !ok {
			return fmt.Errorf("-follow wants name=path, got %q", fl)
		}
		src := feed.NewTailSource(path, 0)
		fmt.Fprintf(os.Stderr, "progxe-serve: following %s into %s\n", path, name)
		go func(name string, src *feed.TailSource) {
			defer src.Close()
			for {
				c, err := src.Next(followCtx)
				if err != nil {
					if followCtx.Err() != nil {
						return
					}
					logger.Warn("follow: skipping line", "relation", name, "err", err)
					select {
					case <-followCtx.Done():
						return
					case <-time.After(feed.DefaultPollInterval):
					}
					continue
				}
				if c.Relation == "" {
					c.Relation = name
				}
				if _, err := srv.ApplyChange(c); err != nil {
					logger.Warn("follow: change rejected", "relation", name, "err", err)
				}
			}
		}(name, src)
	}

	// Profiling endpoint, opt-in and on its own listener so the debug
	// surface never shares a port with query traffic. Lets hot-path
	// regressions be profiled against live load:
	//
	//	go tool pprof http://localhost:6060/debug/pprof/profile?seconds=10
	if *pprofAddr != "" {
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		pln, err := listen(*pprofAddr)
		if err != nil {
			return fmt.Errorf("pprof listener: %w", err)
		}
		fmt.Fprintf(os.Stderr, "progxe-serve: pprof on http://%s/debug/pprof/\n", pln.Addr())
		go func() {
			if err := http.Serve(pln, mux); err != nil {
				fmt.Fprintln(os.Stderr, "progxe-serve: pprof server:", err)
			}
		}()
	}

	// Header/idle timeouts shed slow-loris connections; response writes are
	// deadline-guarded per record inside the service (streams must be able
	// to outlive any whole-response WriteTimeout).
	hs := &http.Server{
		Addr:              *addr,
		Handler:           srv,
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}

	// Graceful shutdown: stop accepting, let streams drain briefly.
	// The handler is installed before the listener reports ready, so a
	// signal that follows readiness always drains instead of killing.
	idle := make(chan error, 1)
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		stopFollow()     // stop the change tails before the catalog drains
		srv.CancelRuns() // abort in-flight streams so the drain can finish
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		idle <- hs.Shutdown(ctx)
	}()

	ln, err := listen(*addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "progxe-serve: listening on %s\n", ln.Addr())
	if ready != nil {
		ready <- ln.Addr().String()
	}
	if err := hs.Serve(ln); err != http.ErrServerClosed {
		return err
	}
	err = <-idle

	// Final counters snapshot on the way out, so a scrape gap at shutdown
	// never loses the run totals.
	st := srv.Stats()
	logger.Info("shutdown",
		"runsStarted", st.RunsStarted,
		"runsCompleted", st.RunsCompleted,
		"runsCanceled", st.RunsCanceled,
		"runsFailed", st.RunsFailed,
		"resultsStreamed", st.ResultsStreamed,
		"runsRejected", st.RunsRejected,
	)
	return err
}

func listen(addr string) (net.Listener, error) { return net.Listen("tcp", addr) }
