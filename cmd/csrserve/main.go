// Command csrserve is the long-lived alignment daemon: one warm
// fragalign.BatchPool behind an HTTP frontend (internal/serve), so a fleet
// of clients shares the pool's shards, bounded queue, and per-alphabet
// compiled-σ cache instead of paying process startup and σ compilation per
// batch.
//
// Usage:
//
//	csrserve -addr :8437 -algo csr-improve -shards 8 &
//	csrgen -count 64 -format jsonl | curl -sN --data-binary @- \
//	    -H 'X-Tenant: acme' http://localhost:8437/v1/solve
//	curl -s http://localhost:8437/metrics | jq .pool.sigma_hit_rate
//
// POST /v1/solve takes the csrbatch JSONL instance format and streams one
// result record per instance (submission order; ?order=completion streams
// as instances finish). ?timeout=30s bounds each instance's solve; the
// X-Tenant header keys σ-cache affinity AND fair admission across requests.
// Admission is weighted max-min fair per tenant: a tenant below its fair
// share of the queue (-tenant-weight sets shares, -tenant-max-inflight
// hard-caps a tenant) is admitted even under load, while an over-share
// tenant is refused 429 with a Retry-After keyed to its own backlog.
// ?partial=1 (or -partial) turns deadline failures mid-improvement into
// "partial": true records carrying the last accepted solution. An admitted
// request's records are byte-identical to a csrbatch run over the same
// input (wall_ms excepted; partial records excepted, by definition).
// -chaos arms the fault-injection harness (internal/faultinject) inside
// the live daemon for game-day drills.
//
// SIGTERM/SIGINT starts a graceful drain: /healthz flips to 503, new
// solves are refused, in-flight streams finish (up to -grace), then the
// pool shuts down.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	fragalign "repro"
	"repro/internal/encoding"
	"repro/internal/faultinject"
	"repro/internal/serve"
)

// parseWeights parses the -tenant-weight grammar: "name=w,name=w" with
// positive float weights.
func parseWeights(spec string) (map[string]float64, error) {
	if spec == "" {
		return nil, nil
	}
	weights := make(map[string]float64)
	for _, kv := range strings.Split(spec, ",") {
		name, val, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok || name == "" {
			return nil, fmt.Errorf("tenant weight %q is not name=w", kv)
		}
		w, err := strconv.ParseFloat(val, 64)
		if err != nil || w <= 0 {
			return nil, fmt.Errorf("tenant weight %q: weight must be a positive number", kv)
		}
		weights[name] = w
	}
	return weights, nil
}

func main() {
	var (
		addr       = flag.String("addr", ":8437", "listen address (use 127.0.0.1:0 for an ephemeral port; the bound address is printed on stderr)")
		algo       = flag.String("algo", "csr-improve", "algorithm for every instance")
		shards     = flag.Int("shards", 0, "concurrent solvers (0 = GOMAXPROCS)")
		queue      = flag.Int("queue", 0, "submission queue bound (0 = 2×shards)")
		eps        = flag.Float64("eps", 0.05, "scaling slack for improvement algorithms")
		seed4      = flag.Bool("seed4", true, "seed improvement with the 4-approximation")
		intMode    = flag.Bool("int", false, "solve under the integer-quantized σ")
		seeded     = flag.Bool("seeded", false, "default to minimizer-seeded candidate generation (requests override with ?seeded=0/1)")
		memBudget  = flag.String("mem-budget", "", "per-instance memory budget, e.g. 512M or 2G; over-budget submissions are refused 413 (empty = no budget)")
		timeout    = flag.Duration("timeout", 0, "default per-instance solve deadline when a request sets none (0 = none)")
		maxTimeout = flag.Duration("max-timeout", 5*time.Minute, "cap on the per-instance deadline a request may ask for (0 = uncapped)")
		maxBody    = flag.Int64("max-body", 256<<20, "request body size limit in bytes")
		tenants    = flag.Int("tenants", 64, "σ-affinity interner cache bound (tenants beyond this evict LRU)")
		grace      = flag.Duration("grace", 30*time.Second, "drain grace period before in-flight requests are cut off")

		tenantMax     = flag.Int("tenant-max-inflight", 0, "cap any one tenant's in-flight instances (0 = no cap)")
		tenantWeights = flag.String("tenant-weight", "", "per-tenant fair-share weights as name=w,name=w (default weight 1; falls back to $CSRSERVE_TENANT_WEIGHTS)")
		partial       = flag.Bool("partial", false, "serve partial results by default: deadline failures mid-improvement resolve as partial records unless a request says ?partial=0")
		chaos         = flag.String("chaos", "", "arm fault-injection rules, e.g. shard-slow:p=0.05:d=50ms,solve-panic:nth=1000 (see internal/faultinject; empty = none)")
		chaosSeed     = flag.Int64("chaos-seed", 1, "seed for the -chaos probability coin")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "usage: csrserve [flags]")
		os.Exit(2)
	}

	weightSpec := *tenantWeights
	if weightSpec == "" {
		weightSpec = os.Getenv("CSRSERVE_TENANT_WEIGHTS")
	}
	weights, err := parseWeights(weightSpec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "csrserve:", err)
		os.Exit(2)
	}
	budget, err := encoding.ParseByteSize(*memBudget)
	if err != nil {
		fmt.Fprintln(os.Stderr, "csrserve:", err)
		os.Exit(2)
	}
	var inj *fragalign.FaultInjector
	if *chaos != "" {
		rules, err := faultinject.ParseRules(*chaos)
		if err != nil {
			fmt.Fprintln(os.Stderr, "csrserve:", err)
			os.Exit(2)
		}
		inj = faultinject.New(*chaosSeed, rules...)
		fmt.Fprintf(os.Stderr, "csrserve: CHAOS ARMED: %s (seed %d)\n", *chaos, *chaosSeed)
	}

	pool := fragalign.NewBatchPool(fragalign.Algorithm(*algo),
		fragalign.WithShards(*shards),
		fragalign.WithQueueDepth(*queue),
		fragalign.WithEps(*eps),
		fragalign.WithFourApproxSeed(*seed4),
		fragalign.WithIntScore(*intMode),
		fragalign.WithSeededCandidates(*seeded),
		fragalign.WithMemBudget(budget),
		fragalign.WithFaultInjector(inj),
	)
	defer pool.Close()

	srv, err := serve.New(serve.Options{
		Pool:              serve.AdaptBatchPool(pool),
		Algorithm:         *algo,
		DefaultTimeout:    *timeout,
		MaxTimeout:        *maxTimeout,
		MaxBody:           *maxBody,
		Tenants:           *tenants,
		TenantMaxInflight: *tenantMax,
		TenantWeights:     weights,
		Partial:           *partial,
		Inject:            inj,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "csrserve:", err)
		os.Exit(1)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "csrserve:", err)
		os.Exit(1)
	}
	hs := &http.Server{Handler: srv}
	fmt.Fprintf(os.Stderr, "csrserve: listening on http://%s (%s, %d shards, queue %d)\n",
		ln.Addr(), *algo, pool.Shards(), pool.Counters().QueueCap)

	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	select {
	case err := <-serveErr:
		fmt.Fprintln(os.Stderr, "csrserve:", err)
		os.Exit(1)
	case s := <-sig:
		fmt.Fprintf(os.Stderr, "csrserve: %v — draining (grace %v)\n", s, *grace)
	}

	// Drain: stop admitting (healthz 503 → load balancers route away; new
	// solves 503) but KEEP LISTENING while in-flight streams finish, so
	// probes and rejections stay observable during the drain window; only
	// then shut the listener down and close the pool.
	srv.StartDrain()
	deadline := time.Now().Add(*grace)
	for srv.InFlightRequests() > 0 && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	if n := srv.InFlightRequests(); n > 0 {
		fmt.Fprintf(os.Stderr, "csrserve: grace expired with %d requests in flight\n", n)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintln(os.Stderr, "csrserve: shutdown:", err)
	}
	fmt.Fprintln(os.Stderr, "csrserve: drained")
}
