// Package serve is the long-lived alignment daemon behind cmd/csrserve: an
// HTTP frontend over one warm fragalign.BatchPool.
//
// Endpoints:
//
//	POST /v1/solve   JSONL instances in (encoding.ReadJSONL wire format),
//	                 streamed encoding.ResultRecord JSONL out. Results
//	                 stream in submission order by default, or completion
//	                 order with ?order=completion. ?timeout=DUR gives every
//	                 instance of the request its own solve deadline; the
//	                 X-Tenant header (or ?tenant=) keys σ-cache affinity.
//	GET  /metrics    JSON snapshot: pool counters, server counters, and
//	                 aggregated fragalign.ImproveStats (see Metrics).
//	GET  /healthz    200 "ok" while serving, 503 "draining" after drain
//	                 starts — the load-balancer eviction signal.
//
// Admission control is enforced at the request boundary, per tenant: the
// first instance of a request passes weighted max-min fair admission
// (admission.go) — a tenant below its fair share of the queue is admitted
// even under load (blocking submission), a tenant at or above its share
// only gets the queue's actual slack (non-blocking submission), and an
// over-share tenant is refused 429 with a Retry-After keyed to its own
// drain estimate. A solo tenant's share is the whole capacity, so
// single-tenant servers shed load exactly as before. Once a request is
// admitted, its remaining instances use blocking submission: within one
// admitted stream the bounded queue exerts ordinary backpressure on the
// request body, exactly the csrbatch semantics, which keeps an admitted
// request's results byte-identical to a csrbatch run over the same input
// (wall_ms aside).
//
// Graceful degradation: with ?partial=1 (or the server-wide Partial
// option) an instance whose deadline fires mid-improvement resolves as a
// "partial": true record carrying the last accepted solution — score exact
// under the true σ — instead of a deadline error.
//
// Graceful drain (Server.StartDrain, wired to SIGTERM by csrserve) flips
// /healthz to 503 and refuses new /v1/solve requests with 503 while
// letting in-flight requests run to completion and flush their streams;
// the pool itself is closed only after the HTTP server has drained.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	fragalign "repro"
	"repro/internal/core"
	"repro/internal/encoding"
	"repro/internal/faultinject"
)

// Options configures a Server.
type Options struct {
	// Pool is the solving backend. Required; the server never closes it.
	Pool Pool
	// Algorithm is the label stamped on every result record; it should
	// match the algorithm the pool actually solves with.
	Algorithm string
	// DefaultTimeout is the per-instance solve deadline applied when a
	// request does not set ?timeout. Zero means no default deadline.
	DefaultTimeout time.Duration
	// MaxTimeout caps the per-instance deadline a request may ask for
	// (and applies to requests asking for none). Zero means uncapped.
	MaxTimeout time.Duration
	// MaxBody bounds the request body in bytes; 0 means 256 MiB.
	MaxBody int64
	// Tenants bounds the σ-affinity interner cache; 0 means 64.
	Tenants int
	// TenantMaxInflight caps any one tenant's in-flight instances; a
	// request whose tenant is at the cap is refused 429 regardless of
	// queue headroom. 0 means no per-tenant cap.
	TenantMaxInflight int
	// TenantWeights gives named tenants a fair-share weight (default 1);
	// shares are proportional to weight over the active tenant set.
	TenantWeights map[string]float64
	// AdmitCapacity overrides the fair-share capacity denominator; 0
	// derives it from the pool's queue bound.
	AdmitCapacity int
	// Partial makes graceful degradation the server default: deadline
	// failures mid-improvement resolve as partial records for every
	// request that does not say ?partial=0. Off by default — requests
	// opt in with ?partial=1.
	Partial bool
	// Inject arms the serve-side chaos point (faultinject.ServeStall) and
	// is handed nowhere else; pool-side points are armed on the pool
	// itself. Nil — the default — injects nothing.
	Inject *faultinject.Injector
}

// Server is the HTTP daemon. Create with New, mount as an http.Handler.
type Server struct {
	opts     Options
	mux      *http.ServeMux
	draining atomic.Bool
	ctr      counters
	tenants  *tenantCache
	started  time.Time
}

// New builds a Server over its backend pool.
func New(opts Options) (*Server, error) {
	if opts.Pool == nil {
		return nil, errors.New("serve: Options.Pool is required")
	}
	if opts.Algorithm == "" {
		opts.Algorithm = string(fragalign.CSRImprove)
	}
	if opts.MaxBody <= 0 {
		opts.MaxBody = 256 << 20
	}
	if opts.Tenants <= 0 {
		opts.Tenants = 64
	}
	s := &Server{
		opts:    opts,
		mux:     http.NewServeMux(),
		tenants: newTenantCache(opts.Tenants, opts.TenantWeights, 1),
		started: time.Now(),
	}
	s.mux.HandleFunc("/v1/solve", s.handleSolve)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	return s, nil
}

// ServeHTTP dispatches to the server's endpoints.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// StartDrain begins a graceful drain: /healthz flips to 503 (so load
// balancers stop routing here) and new /v1/solve requests are refused with
// 503, while requests already streaming run to completion. Idempotent.
// The caller is responsible for subsequently shutting down the HTTP server
// (which waits for in-flight requests) and closing the pool.
func (s *Server) StartDrain() { s.draining.Store(true) }

// Draining reports whether StartDrain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// InFlightRequests is the number of /v1/solve requests currently being
// processed — the drain loop in cmd/csrserve polls this toward zero before
// shutting the HTTP server down, so the daemon keeps answering /healthz
// (with 503) for load balancers while in-flight streams finish.
func (s *Server) InFlightRequests() int64 { return s.ctr.inflight.Load() }

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(s.snapshot()); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// retryAfterSeconds estimates how long a rejected client should back off:
// the time the full queue needs to drain across the shards, from the
// observed mean solve time (1s before any observation), clamped to
// [1s, 60s] whole seconds.
func (s *Server) retryAfterSeconds() int {
	mean := time.Second
	if solved := s.ctr.instancesOK.Load(); solved > 0 {
		mean = time.Duration(s.ctr.solveNanos.Load() / solved)
	}
	c := s.opts.Pool.Counters()
	shards := s.opts.Pool.Shards()
	if shards < 1 {
		shards = 1
	}
	est := mean * time.Duration(c.QueueCap) / time.Duration(shards)
	secs := int(math.Ceil(est.Seconds()))
	if secs < 1 {
		secs = 1
	}
	if secs > 60 {
		secs = 60
	}
	return secs
}

// retryAfterTenant estimates how long a tenant refused by fair admission
// should back off: the time its own queue excess needs to drain across the
// shards, from the observed mean solve time (1s before any observation),
// clamped to [1s, 60s] whole seconds. A heavily over-share tenant is told
// to stay away longer than one nudging its cap — per-tenant backoff, not a
// global constant.
func (s *Server) retryAfterTenant(excess int) int {
	mean := time.Second
	if solved := s.ctr.instancesOK.Load(); solved > 0 {
		mean = time.Duration(s.ctr.solveNanos.Load() / solved)
	}
	shards := s.opts.Pool.Shards()
	if shards < 1 {
		shards = 1
	}
	if excess < 1 {
		excess = 1
	}
	est := mean * time.Duration(excess) / time.Duration(shards)
	secs := int(math.Ceil(est.Seconds()))
	if secs < 1 {
		secs = 1
	}
	if secs > 60 {
		secs = 60
	}
	return secs
}

// admitCapacity is the fair-share denominator: the configured override, or
// the pool's queue bound.
func (s *Server) admitCapacity() int {
	if s.opts.AdmitCapacity > 0 {
		return s.opts.AdmitCapacity
	}
	if qc := s.opts.Pool.Counters().QueueCap; qc > 0 {
		return qc
	}
	return 1
}

// pending is one instance's place in a request's pipeline, mirroring the
// csrbatch sink structure.
type pending struct {
	ticket Ticket
	cancel context.CancelFunc
	index  int
	name   string
	ten    *tenantEntry // non-nil iff an in-flight reservation is held
	err    error        // submission-time failure (deadline hit while queued)
}

func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return
	}
	if s.draining.Load() {
		s.ctr.drainRejected.Add(1)
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	q := r.URL.Query()
	unordered := false
	switch q.Get("order") {
	case "", "submission":
	case "completion":
		unordered = true
	default:
		http.Error(w, "order must be submission or completion", http.StatusBadRequest)
		return
	}
	timeout := s.opts.DefaultTimeout
	if ts := q.Get("timeout"); ts != "" {
		d, err := time.ParseDuration(ts)
		if err != nil || d < 0 {
			http.Error(w, "bad timeout: "+ts, http.StatusBadRequest)
			return
		}
		timeout = d
	}
	if s.opts.MaxTimeout > 0 && (timeout == 0 || timeout > s.opts.MaxTimeout) {
		timeout = s.opts.MaxTimeout
	}
	partial := s.opts.Partial
	switch q.Get("partial") {
	case "":
	case "1", "true":
		partial = true
	case "0", "false":
		partial = false
	default:
		http.Error(w, "partial must be 0 or 1", http.StatusBadRequest)
		return
	}
	// Per-request solve options ride on every submission of the request.
	// ?seeded= overrides the pool's candidate-generation mode; absent means
	// the pool default — whatever csrserve's -seeded flag built the pool
	// with.
	var subOpts []fragalign.Option
	if partial {
		subOpts = append(subOpts, fragalign.WithPartialResults(true))
	}
	switch q.Get("seeded") {
	case "":
	case "1", "true":
		subOpts = append(subOpts, fragalign.WithSeededCandidates(true))
	case "0", "false":
		subOpts = append(subOpts, fragalign.WithSeededCandidates(false))
	default:
		http.Error(w, "seeded must be 0 or 1", http.StatusBadRequest)
		return
	}
	tenant := r.Header.Get("X-Tenant")
	if t := q.Get("tenant"); t != "" {
		tenant = t
	}
	s.ctr.requests.Add(1)
	s.ctr.inflight.Add(1)
	defer s.ctr.inflight.Add(-1)

	// The handler streams records while the reader goroutine is still
	// consuming instances from the same connection. HTTP/1 servers
	// half-duplex that by default — the server drains the unread body the
	// moment the response starts, racing (and truncating) our reader — so
	// opt in to full duplex; on HTTP/2 this is a no-op.
	if err := http.NewResponseController(w).EnableFullDuplex(); err != nil && r.ProtoMajor == 1 {
		http.Error(w, "full-duplex streaming unsupported: "+err.Error(), http.StatusInternalServerError)
		return
	}

	ten := s.tenants.acquire(tenant)
	defer s.tenants.release(ten)
	body := http.MaxBytesReader(w, r.Body, s.opts.MaxBody)
	reqCtx := r.Context()

	// Reader goroutine: parse and submit, blocking on the bounded queue for
	// backpressure — except the request's first instance, which must clear
	// per-tenant fair admission (admission.go) or the whole request is
	// refused 429 before any response byte is written.
	var errRejected = errors.New("serve: admission refused")
	var errOverBudget = errors.New("serve: over memory budget")
	var overBudget *fragalign.OverBudgetError // set when errOverBudget
	capacity := s.admitCapacity()
	rejectExcess := 1 // sizes the Retry-After hint when errRejected
	buf := 2 * s.opts.Pool.Shards()
	tickets := make(chan pending, buf)
	var readErr error
	go func() {
		defer close(tickets)
		index := 0
		readErr = encoding.ReadJSONLWith(body, ten.si, func(in *core.Instance) error {
			ictx := reqCtx
			var cancel context.CancelFunc
			if timeout > 0 {
				ictx, cancel = context.WithTimeout(reqCtx, timeout)
			}
			var t Ticket
			var err error
			if index == 0 {
				dec, excess := s.tenants.admitFirst(ten, capacity, s.opts.TenantMaxInflight)
				switch dec {
				case admitReject:
					if cancel != nil {
						cancel()
					}
					rejectExcess = excess
					return errRejected
				case admitSlack:
					t, err = s.opts.Pool.TrySubmit(ictx, in, subOpts...)
					if errors.Is(err, fragalign.ErrQueueFull) {
						if cancel != nil {
							cancel()
						}
						s.tenants.unadmit(ten)
						return errRejected
					}
				default: // admitGuaranteed
					t, err = s.opts.Pool.Submit(ictx, in, subOpts...)
				}
			} else {
				s.tenants.reserve(ten)
				t, err = s.opts.Pool.Submit(ictx, in, subOpts...)
			}
			if err != nil {
				if index == 0 {
					// A first instance the pool's memory budget refuses fails
					// the whole request with a structured 413 — nothing was
					// admitted, nothing streamed. Later instances surface the
					// same error per record below.
					var ob *fragalign.OverBudgetError
					if errors.As(err, &ob) {
						overBudget = ob
						s.tenants.unadmit(ten)
						if cancel != nil {
							cancel()
						}
						return errOverBudget
					}
				}
				// Per-instance submission failure (deadline or cancellation
				// while queued): record it, keep the stream going — unless
				// the whole request is gone.
				s.tenants.finishInstance(ten)
				if cancel != nil {
					cancel()
				}
				if reqCtx.Err() != nil {
					return reqCtx.Err()
				}
				tickets <- pending{index: index, name: in.Name, err: err}
				index++
				return nil
			}
			tickets <- pending{ticket: t, cancel: cancel, index: index, name: in.Name, ten: ten}
			index++
			return nil
		})
	}()

	// Injected handler stall (chaos: widens the drain and mid-stream
	// disconnect windows between admission and streaming).
	s.opts.Inject.Stall(reqCtx, faultinject.ServeStall)

	// The single writer: resolve pendings (in submission or completion
	// order), stream records, flush per record so clients consume results
	// while later instances still solve. On client death we keep draining —
	// every ticket must resolve so deadline timers release and metrics see
	// the failures — but stop writing.
	var wroteAny bool
	var writeErr error
	flusher, _ := w.(http.Flusher)
	cw := &countingWriter{w: w, n: &s.ctr.bytesStreamed}
	emit := func(rec encoding.ResultRecord) {
		s.ctr.recordsWritten.Add(1)
		if writeErr != nil {
			return
		}
		if !wroteAny {
			w.Header().Set("Content-Type", "application/x-ndjson")
			wroteAny = true
		}
		if err := encoding.WriteJSONLResult(cw, &rec); err != nil {
			writeErr = err
			return
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
	if unordered {
		records := make(chan encoding.ResultRecord, buf)
		go func() {
			defer close(records)
			sem := make(chan struct{}, buf)
			var wg sync.WaitGroup
			for p := range tickets {
				p := p
				sem <- struct{}{}
				wg.Add(1)
				go func() {
					defer wg.Done()
					records <- s.resolve(p)
					<-sem
				}()
			}
			wg.Wait()
		}()
		for rec := range records {
			emit(rec)
		}
	} else {
		for p := range tickets {
			emit(s.resolve(p))
		}
	}

	// A reader that stopped early (refusal, bad input) leaves the body's
	// rest unread. net/http discards a full-duplex body only after the
	// handler returns, past its abort of the connection's background read,
	// so the discard's end-of-body hook starts a background read that the
	// next request on a kept-alive connection collides with ("invalid
	// concurrent Body.Read call", a process-killing panic when the colliding
	// read is that request's reader goroutine). An error response therefore
	// closes the connection, and a stream already under way drains the body
	// itself once its error record is out.
	if readErr != nil && !wroteAny {
		w.Header().Set("Connection", "close")
	}
	var maxBytesErr *http.MaxBytesError
	switch {
	case errors.Is(readErr, errRejected):
		// Nothing admitted, nothing written: refuse the whole request with
		// the rejected tenant's own drain estimate.
		s.ctr.rejected.Add(1)
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterTenant(rejectExcess)))
		http.Error(w, "queue full", http.StatusTooManyRequests)
	case errors.Is(readErr, errOverBudget) && !wroteAny:
		// The request's first instance blew the pool's memory budget: a
		// structured 413 carrying the cost-model estimate, so the client can
		// see which term to shrink (or which budget to raise).
		s.ctr.overBudget.Add(1)
		writeJSONError(w, http.StatusRequestEntityTooLarge, overBudget.Error(), map[string]any{
			"estimate_bytes": overBudget.Estimate.Total(),
			"sigma_bytes":    overBudget.Estimate.SigmaBytes,
			"scratch_bytes":  overBudget.Estimate.ScratchBytes,
			"state_bytes":    overBudget.Estimate.StateBytes,
			"budget_bytes":   overBudget.Budget,
		})
	case errors.As(readErr, &maxBytesErr) && !wroteAny:
		// The body overran MaxBody: a structured 413 with the limit, before
		// the server read (or buffered) anything past it.
		s.ctr.tooLarge.Add(1)
		writeJSONError(w, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("request body exceeds %d bytes", maxBytesErr.Limit),
			map[string]any{"max_body_bytes": maxBytesErr.Limit})
	case readErr != nil && reqCtx.Err() == nil:
		if !wroteAny {
			// Malformed input (bad JSON, negative lengths, duplicate
			// fragment IDs, empty alphabets, ...): a structured 400 naming
			// the offending line.
			s.ctr.badInput.Add(1)
			writeJSONError(w, http.StatusBadRequest, readErr.Error(), nil)
			return
		}
		// The stream already carries records; append a stream-level error
		// record (index -1 marks it as not belonging to any instance).
		emit(encoding.ResultRecord{Index: -1, Error: "input: " + readErr.Error()})
		io.Copy(io.Discard, body) // a failed drain means the connection is gone
	case !wroteAny && writeErr == nil && reqCtx.Err() == nil:
		// Empty but well-formed input: an empty 200 stream.
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.WriteHeader(http.StatusOK)
	}
}

// resolve waits for one pending instance and renders its result record —
// field for field what csrbatch emits, so a served stream is comparable to
// a csrbatch run byte for byte (modulo wall_ms).
func (s *Server) resolve(p pending) encoding.ResultRecord {
	rec := encoding.ResultRecord{Index: p.index, Name: p.name, Algorithm: s.opts.Algorithm}
	var res *fragalign.Result
	err := p.err
	if err == nil {
		res, err = p.ticket.Wait()
	}
	if p.cancel != nil {
		p.cancel()
	}
	if p.ten != nil {
		s.tenants.finishInstance(p.ten)
	}
	if err != nil {
		s.ctr.instancesFail.Add(1)
		rec.Error = err.Error()
		return rec
	}
	s.ctr.instancesOK.Add(1)
	s.ctr.solveNanos.Add(int64(res.Wall))
	rec.Score = res.Score
	rec.WallMS = float64(res.Wall.Microseconds()) / 1000
	if res.Solution != nil {
		rec.Matches = len(res.Solution.Matches)
	}
	if res.Stats != nil {
		rec.Rounds = res.Stats.Rounds
		if res.Stats.Partial {
			rec.Partial = true
			s.ctr.partials.Add(1)
		}
		s.ctr.addImprove(res.Stats)
	}
	return rec
}

// writeJSONError answers a whole-request failure with a structured JSON
// body: {"error": msg} plus any extra fields (cost-model estimates, limits).
// Machine-readable rejects let batch clients distinguish "shrink this
// instance" from "retry later" without parsing prose.
func writeJSONError(w http.ResponseWriter, status int, msg string, extra map[string]any) {
	doc := map[string]any{"error": msg}
	for k, v := range extra {
		doc[k] = v
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(doc)
}

// countingWriter tallies streamed bytes for the metrics surface.
type countingWriter struct {
	w http.ResponseWriter
	n *atomic.Int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n.Add(int64(n))
	return n, err
}
