// Command hmcsim-serve runs the HMC-Sim simulation service: a long-lived
// daemon that accepts simulation jobs over a JSON HTTP API, schedules
// them onto a bounded worker pool (one independent simulator instance
// per running job) and serves results and metrics (JSON or Prometheus
// text exposition, negotiated on /v1/metrics via the Accept header).
//
//	hmcsim-serve -addr :8080 -workers 8 -queue 64
//
// With -pprof the net/http/pprof profiling endpoints are mounted under
// /debug/pprof/ alongside the API; they expose goroutine stacks and heap
// contents, so the flag is off by default.
//
// With -data DIR the daemon is crash-safe: every job state transition is
// journaled (and fsynced) to DIR before it is acknowledged, results and
// periodic checkpoints are persisted, and a restart over the same DIR
// replays the journal — finished jobs keep their results, interrupted
// jobs resume from their last checkpoint. See README "Crash recovery"
// and DESIGN.md §12.
//
// The daemon keeps a content-addressed result cache (-cache-bytes,
// default 256 MiB): a submission whose canonical spec matches a finished
// job is served the cached result immediately with cache:"hit"
// provenance, and identical concurrent submissions coalesce onto one
// simulation. -cache-verify re-executes a sampled fraction of hits and
// fails loudly on digest mismatch. See README "Result cache" and
// DESIGN.md §15.
//
// With -tenants FILE the daemon is multi-tenant: FILE is a JSON roster
// of API keys, per-tenant quotas (max queued, max running) and
// fair-share scheduling weights. Authenticated submissions
// ("Authorization: Bearer <key>") dispatch under deficit round-robin so
// one tenant's burst cannot starve the others; requests without a key
// keep working unchanged as the anonymous tenant. See README
// "Multi-tenant serving & streaming" and DESIGN.md §16.
//
// See the README's "Serving mode" and "Observability" sections for the
// endpoint reference and an example curl session. On SIGINT/SIGTERM the
// daemon stops accepting work and exits within the -drain budget: with
// no -data it drains queued and running jobs to completion; with -data
// running jobs take a final checkpoint and everything unfinished is left
// journaled for the next start.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"hmcsim/internal/server"
	"hmcsim/internal/store"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address (host:port; port 0 picks a free port)")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "worker pool size (concurrent simulator instances)")
	queue := flag.Int("queue", 64, "bounded job queue depth; submissions beyond it get 429")
	timeout := flag.Duration("timeout", 5*time.Minute, "default per-job wall-clock timeout")
	drain := flag.Duration("drain", 2*time.Minute, "shutdown drain budget for queued and running jobs")
	pprofOn := flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ (off by default: exposes stacks and heap)")
	legacyPaths := flag.Bool("legacy-paths", true, "serve the deprecated pre-versioning path aliases (/api/v1/jobs, /metrics, /healthz); turn off to preview their removal")
	dataDir := flag.String("data", "", "durable data directory (journal, results, checkpoints); empty runs in-memory with no crash recovery")
	ckEvery := flag.Uint64("checkpoint-cycles", 0, "checkpoint interval in simulated cycles with -data (0 selects the default)")
	retries := flag.Int("retries", 0, "max execution attempts per job, transient failures retrying with backoff (0 selects the default)")
	cacheBytes := flag.Int64("cache-bytes", 256<<20, "byte budget of the content-addressed result cache; identical submissions are served from it or coalesced onto an in-flight run (0 disables)")
	cacheVerify := flag.Float64("cache-verify", 0, "fraction of cache hits re-executed to revalidate determinism; a digest mismatch evicts the entry and fails the sampled job (0 never, 1 every hit)")
	tenantsFile := flag.String("tenants", "", "tenant roster JSON file (API keys, per-tenant quotas, fair-share weights); empty serves every request as the anonymous tenant with no quotas")
	flag.Parse()

	log.SetFlags(log.LstdFlags | log.Lmicroseconds)
	log.SetPrefix("hmcsim-serve: ")

	var st *store.Store
	if *dataDir != "" {
		var err error
		st, err = store.Open(*dataDir)
		if err != nil {
			log.Fatalf("opening store: %v", err)
		}
		log.Printf("store %s: %d journal records replayed", st.Dir(), len(st.Records()))
		if n := st.TruncatedBytes(); n > 0 {
			log.Printf("store: truncated %d bytes of torn journal tail", n)
		}
	}
	var tenants []server.TenantConfig
	if *tenantsFile != "" {
		var err error
		tenants, err = server.LoadTenants(*tenantsFile)
		if err != nil {
			log.Fatalf("loading tenants: %v", err)
		}
	}
	mgr := server.NewManager(server.ManagerConfig{
		Workers:         *workers,
		QueueDepth:      *queue,
		DefaultTimeout:  *timeout,
		Store:           st,
		CheckpointEvery: *ckEvery,
		MaxAttempts:     *retries,
		CacheBytes:      *cacheBytes,
		CacheVerify:     *cacheVerify,
		Tenants:         tenants,
	})
	if mgr.Recovering() {
		log.Printf("recovering: requeueing interrupted jobs from the journal")
	}
	handler := server.NewHandlerWithOptions(mgr, server.HandlerOptions{
		LegacyPaths: *legacyPaths,
		Pprof:       *pprofOn,
	})
	srv := &http.Server{Handler: handler}

	// Catch the shutdown signals before the listen line announces the
	// daemon: a client may submit and signal as soon as it reads that
	// line, and a SIGTERM that lands before the handler is installed
	// would kill the process without draining.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	// The chosen address goes to stdout so scripts (and the CLI tests)
	// can discover an ephemeral port.
	fmt.Printf("listening on %s\n", ln.Addr())
	log.Printf("%d workers, queue depth %d, default timeout %v", *workers, *queue, *timeout)
	if *cacheBytes > 0 {
		if *cacheVerify > 0 {
			log.Printf("result cache: %d MiB budget, verifying %.0f%% of hits", *cacheBytes>>20, 100**cacheVerify)
		} else {
			log.Printf("result cache: %d MiB budget", *cacheBytes>>20)
		}
	} else {
		log.Printf("result cache disabled; every submission simulates")
	}
	if len(tenants) > 0 {
		keyed := 0
		for _, t := range tenants {
			if t.Key != "" {
				keyed++
			}
		}
		log.Printf("multi-tenant: %d tenants (%d keyed) with fair-share dispatch; unauthenticated requests run as the anonymous tenant", len(tenants), keyed)
	}
	if *pprofOn {
		log.Printf("pprof enabled at /debug/pprof/")
	}
	if *legacyPaths {
		log.Printf("deprecated pre-versioning path aliases enabled (sunset %s); preview their removal with -legacy-paths=false", server.LegacySunset)
	} else {
		log.Printf("legacy path aliases disabled; only the /v1 surface is mounted")
	}

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	select {
	case err := <-errc:
		log.Fatalf("serve: %v", err)
	case <-ctx.Done():
	}
	stop()

	log.Printf("signal received; draining (budget %v)", *drain)
	dctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	// Drain the job manager first — the API stays up through the drain
	// so clients can keep polling and fetch final results (submissions
	// are already rejected with 503) — then stop the HTTP server.
	drainErr := mgr.Shutdown(dctx)
	if err := srv.Shutdown(dctx); err != nil {
		log.Printf("http shutdown: %v", err)
	}
	if st != nil {
		var left int
		for _, js := range mgr.List() {
			if !js.State.Terminal() {
				left++
			}
		}
		if left > 0 {
			log.Printf("suspended %d unfinished jobs; they resume on the next start with -data %s", left, st.Dir())
		}
		if err := st.Close(); err != nil {
			log.Printf("closing store: %v", err)
		}
	}
	if drainErr != nil {
		log.Printf("drain incomplete: %v", drainErr)
		fmt.Println("drain aborted")
		os.Exit(1)
	}
	fmt.Println("drained; bye")
}
