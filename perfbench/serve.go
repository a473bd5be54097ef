package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/http/httptrace"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	fragalign "repro"
	"repro/internal/core"
	"repro/internal/encoding"
	"repro/internal/serve"
)

// The serve mix drives a real csrserve process with open-loop Poisson
// arrivals at a fixed rate, about half the 2-shard daemon's measured
// capacity for these requests (an unpaced burst completed 143 req/s).
const (
	serveRate   = 70.0 // requests per second
	serveShards = 2
	serveConns  = 2 // client connections, at most nproc
)

// daemonMode is how the csrserve process solves (-int -seed4).
var daemonMode = mode{intScore: true}

// daemon is a running csrserve process.
type daemon struct {
	cmd    *exec.Cmd
	url    string
	stderr sync.WaitGroup // stderr reader; done once the process exits
}

// startDaemon launches csrserve and returns once /healthz answers 200.
func startDaemon(bin string) (*daemon, error) {
	if bin == "" {
		return nil, errors.New("no csrserve binary given (-csrserve)")
	}
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-int", "-seed4",
		"-shards", strconv.Itoa(serveShards), "-queue", "32", "-grace", "5s")
	// The daemon must not outlive the benchmark, whatever ends it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	pipe, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start csrserve: %w", err)
	}
	d := &daemon{cmd: cmd}
	addr := make(chan string, 1)
	d.stderr.Add(1)
	go d.readStderr(pipe, addr)
	t0 := time.Now()
	select {
	case a := <-addr:
		d.url = a
	case <-time.After(30 * time.Second):
		d.stop()
		return nil, errors.New("csrserve did not report its address")
	}
	for {
		resp, err := http.Get(d.url + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Since(t0) > 30*time.Second {
			d.stop()
			return nil, errors.New("csrserve never became healthy")
		}
		time.Sleep(time.Millisecond)
	}
}

// readStderr hands the daemon's bound address to addr and passes the rest
// of its log through.
func (d *daemon) readStderr(pipe io.Reader, addr chan<- string) {
	defer d.stderr.Done()
	sc := bufio.NewScanner(pipe)
	sent := false
	for sc.Scan() {
		line := sc.Text()
		if i := strings.Index(line, "listening on http://"); i >= 0 && !sent {
			addr <- strings.Fields(line[i+len("listening on "):])[0]
			sent = true
			continue
		}
		fmt.Fprintln(os.Stderr, line)
	}
}

// stop drains the daemon with SIGTERM (SIGKILL after a grace period) and
// waits for it.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // an exited process needs no signal
	done := make(chan struct{})
	go func() { d.stderr.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(15 * time.Second):
		_ = d.cmd.Process.Kill() // the wait below reports how it ended
		<-done
	}
	_ = d.cmd.Wait() // a SIGTERM exit status is expected
}

// reqTiming is the client's view of one request.
type reqTiming struct {
	due, conn, first, end time.Time
	late                  time.Duration // dispatcher lateness
	status                int
	recs                  []encoding.ResultRecord
	recAt                 []time.Time
	err                   error
}

func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     serveConns,
		MaxIdleConnsPerHost: serveConns,
		DisableCompression:  true,
	}}
}

// shoot POSTs one request body to /v1/solve and reads the streamed records.
func shoot(client *http.Client, url, tenant string, body []byte, due time.Time) reqTiming {
	rt := reqTiming{due: due}
	req, err := http.NewRequest(http.MethodPost, url+"/v1/solve", bytes.NewReader(body))
	if err != nil {
		rt.err = err
		return rt
	}
	req.Header.Set("X-Tenant", tenant)
	trace := &httptrace.ClientTrace{GotConn: func(httptrace.GotConnInfo) { rt.conn = time.Now() }}
	req = req.WithContext(httptrace.WithClientTrace(context.Background(), trace))
	resp, err := client.Do(req)
	if err != nil {
		rt.err = err
		return rt
	}
	defer resp.Body.Close()
	rt.first = time.Now()
	rt.status = resp.StatusCode
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		rt.end = time.Now()
		return rt
	}
	rt.err = encoding.ReadJSONLResults(resp.Body, func(rec encoding.ResultRecord) error {
		rt.recs = append(rt.recs, rec)
		rt.recAt = append(rt.recAt, time.Now())
		return nil
	})
	rt.end = time.Now()
	return rt
}

// ok reports whether a request came back whole and without errors.
func (rt *reqTiming) ok(n int) bool {
	if rt.err != nil || rt.status != http.StatusOK || len(rt.recs) != n {
		return false
	}
	for _, rec := range rt.recs {
		if rec.Error != "" {
			return false
		}
	}
	return true
}

// openLoop sends reqs on their Poisson schedule, each from its own
// goroutine, and waits for all of them.
func openLoop(client *http.Client, url string, reqs []request) []reqTiming {
	out := make([]reqTiming, len(reqs))
	var wg sync.WaitGroup
	start := time.Now().Add(20 * time.Millisecond)
	for i := range reqs {
		due := start.Add(time.Duration(reqs[i].due * float64(time.Second)))
		time.Sleep(time.Until(due))
		late := time.Since(due)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out[i] = shoot(client, url, reqs[i].tenant, reqs[i].body, due)
			out[i].late = late
		}(i)
	}
	wg.Wait()
	return out
}

// getMetrics fetches the daemon's /metrics document.
func getMetrics(url string) (serve.Metrics, error) {
	var m serve.Metrics
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		return m, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return m, fmt.Errorf("/metrics: %s", resp.Status)
	}
	return m, json.NewDecoder(resp.Body).Decode(&m)
}

// serveMix runs the serve mix against a real csrserve process for budget
// and reports the serve layer: client-side request phases (recorded as
// spans) and /metrics deltas. Every record must come back and match an
// in-process solve.
func serveMix(r *run, tr *tracer, budget time.Duration) error {
	n := max(minSamples, int(serveRate*budget.Seconds()+0.5))
	reqs, err := genServe(r.seed, n, serveRate)
	if err != nil {
		return err
	}
	d, err := startDaemon(r.csrserve)
	if err != nil {
		return err
	}
	defer d.stop()
	client := newClient()
	defer client.CloseIdleConnections()
	m0, err := getMetrics(d.url)
	if err != nil {
		return err
	}
	res := openLoop(client, d.url, reqs)
	m1, err := getMetrics(d.url)
	if err != nil {
		return err
	}
	var st serveStats
	for i, rt := range res {
		if !rt.ok(reqs[i].n) {
			r.check(false, "serve mix request %d: status %d, %d of %d records, %v", i, rt.status, len(rt.recs), reqs[i].n, rt.err)
			continue
		}
		st.add(tr, 2_000_000+i, rt)
	}
	st.rejected = int(m1.Server.RejectedRequests - m0.Server.RejectedRequests)
	st.solveMS = m1.Server.SolveMSTotal - m0.Server.SolveMSTotal
	r.setServe(&st)
	return checkServeRecords(r, reqs, res)
}

// checkServeRecords re-solves every returned instance in-process with the
// daemon's options and requires bit-equal scores. Instances from the
// shared-σ pool are solved once per pool index.
func checkServeRecords(r *run, reqs []request, res []reqTiming) error {
	opts := daemonMode.options()
	ref := map[int]float64{}
	for i, rt := range res {
		q := reqs[i]
		if !rt.ok(q.n) {
			continue
		}
		k := 0
		err := encoding.ReadJSONL(bytes.NewReader(q.body), func(in *core.Instance) error {
			want, cached := 0.0, false
			if q.hit != nil {
				want, cached = ref[q.hit[k]]
			}
			if !cached {
				sol, err := fragalign.Solve(in, fragalign.CSRImprove, opts...)
				if err != nil {
					return fmt.Errorf("reference solve: %w", err)
				}
				checkOne(r, in, sol)
				want = sol.Score
				if q.hit != nil {
					ref[q.hit[k]] = want
				}
			}
			got := rt.recs[k].Score
			r.check(got == want, "request %d instance %d: daemon score %v, in-process %v", i, k, got, want)
			k++
			return nil
		})
		if err != nil {
			return fmt.Errorf("request %d: %w", i, err)
		}
	}
	return nil
}

// nthInstance decodes instance k of a JSONL body.
func nthInstance(body []byte, si *encoding.SigmaInterner, k int) (*core.Instance, error) {
	var out *core.Instance
	i := 0
	err := encoding.ReadJSONLWith(bytes.NewReader(body), si, func(in *core.Instance) error {
		if i == k {
			out = in
		}
		i++
		return nil
	})
	if err == nil && out == nil {
		err = fmt.Errorf("body has no instance %d", k)
	}
	return out, err
}

// serveStats aggregates the client's view of a run of requests.
type serveStats struct {
	n                  int
	ttfb, stream, late time.Duration
	clientMS, solveMS  float64
	queueWait          []float64
	rejected           int
}

// add folds one successful request in and records its client-side spans:
// the request from when it was due, split into waiting for a connection,
// time to first byte, and streaming the rest.
func (st *serveStats) add(tr *tracer, op int, rt reqTiming) {
	st.n++
	st.ttfb += rt.first.Sub(rt.conn)
	st.stream += rt.end.Sub(rt.first)
	st.late += rt.late
	st.clientMS += ms(rt.end.Sub(rt.conn))
	// The first record's arrival minus its solve time is its wait for a
	// shard (plus the HTTP hop); later records also wait on stream order.
	st.queueWait = append(st.queueWait, ms(rt.recAt[0].Sub(rt.conn))-rt.recs[0].WallMS)
	root := tr.add("serve.request", 0, op, rt.due, rt.end)
	tr.add("serve.wait_conn", root, op, rt.due, rt.conn)
	tr.add("serve.ttfb", root, op, rt.conn, rt.first)
	tr.add("serve.stream", root, op, rt.first, rt.end)
}

// setServe reports the serve layer metrics of st.
func (r *run) setServe(st *serveStats) {
	n := float64(max(st.n, 1))
	r.set("serve.ttfb_ms", ms(st.ttfb)/n)
	r.set("serve.stream_ms", ms(st.stream)/n)
	r.set("serve.generator_late_ms", ms(st.late)/n)
	r.set("serve.rejected_429", float64(st.rejected))
	r.set("serve.solve_share", st.solveMS/max(st.clientMS, 1e-9))
}

// setPool reports the batch layer: queue waits, shard busy share over
// elapsed, and σ-cache traffic.
func (r *run) setPool(waits []float64, c fragalign.BatchCounters, elapsed time.Duration) {
	var busy time.Duration
	for _, b := range c.ShardBusy {
		busy += b
	}
	r.setQueueWait(waits)
	r.set("batch.shard_busy_share", float64(busy)/(float64(max(len(c.ShardBusy), 1))*float64(elapsed)))
	r.set("batch.sigma_hits", float64(c.SigmaHits))
	r.set("batch.sigma_misses", float64(c.SigmaMisses))
}

// setQueueWait reports queue-wait quantiles. p90 follows the percentile
// rule where the run has the samples; with fewer it reports the largest
// sample, an upper bound (batch.queue_wait_samples tells which).
func (r *run) setQueueWait(waits []float64) {
	r.set("batch.queue_wait_samples", float64(len(waits)))
	r.set("batch.queue_wait_p50_ms", median(append([]float64(nil), waits...)))
	p90, ok := quantile(waits, 0.9)
	if !ok && len(waits) > 0 {
		p90 = waits[len(waits)-1] // quantile sorted waits
	}
	r.set("batch.queue_wait_p90_ms", p90)
}

// serveProbe serves a workload's instances through an in-process csrserve
// equivalent (serve.New over a fragalign.BatchPool on a loopback
// listener), one instance per request in a closed loop, n requests, and
// reports the serve and batch layer metrics. The pool keeps every distinct
// σ it compiles, so n stays small for workloads with a fresh σ each.
func serveProbe(r *run, tr *tracer, lines [][]byte, m mode, n int) error {
	pool := fragalign.NewBatchPool(fragalign.CSRImprove, append(m.options(), fragalign.WithShards(serveShards))...)
	defer pool.Close()
	srv, err := serve.New(serve.Options{Pool: serve.AdaptBatchPool(pool), Algorithm: string(fragalign.CSRImprove)})
	if err != nil {
		return err
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	client := newClient()
	defer client.CloseIdleConnections()
	m0, err := getMetrics(ts.URL)
	if err != nil {
		return err
	}
	var st serveStats
	start := time.Now()
	for i := 0; i < n; i++ {
		// Closed loop: each request is due when the previous one ends.
		due := time.Now()
		rt := shoot(client, ts.URL, "probe", lines[i%len(lines)], due)
		rt.late = rt.conn.Sub(due)
		if !rt.ok(1) {
			r.check(false, "serve probe request %d: status %d, %d records, %v", i, rt.status, len(rt.recs), rt.err)
			return nil
		}
		st.add(tr, -1-i, rt)
	}
	elapsed := time.Since(start)
	m1, err := getMetrics(ts.URL)
	if err != nil {
		return err
	}
	st.rejected = int(m1.Server.RejectedRequests - m0.Server.RejectedRequests)
	st.solveMS = m1.Server.SolveMSTotal - m0.Server.SolveMSTotal
	r.setServe(&st)
	r.setPool(st.queueWait, pool.Counters(), elapsed)
	return nil
}
