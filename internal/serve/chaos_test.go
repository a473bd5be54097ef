package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	fragalign "repro"
	"repro/internal/encoding"
	"repro/internal/faultinject"
)

// newChaosServer builds a Server with explicit Options over a real batch
// pool, so chaos tests can arm both the pool-side injection points (via
// fragalign.WithFaultInjector) and the serve-side one (Options.Inject).
func newChaosServer(t *testing.T, sopts Options, opts ...fragalign.Option) *Server {
	t.Helper()
	opts = append([]fragalign.Option{fragalign.WithFourApproxSeed(true), fragalign.WithShards(4)}, opts...)
	bp := fragalign.NewBatchPool(fragalign.CSRImprove, opts...)
	t.Cleanup(bp.Close)
	sopts.Pool = AdaptBatchPool(bp)
	if sopts.Algorithm == "" {
		sopts.Algorithm = string(fragalign.CSRImprove)
	}
	s, err := New(sopts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestChaosSolvePanicStreamsErrors: injected solver panics must surface as
// per-record errors in an otherwise healthy stream — the connection stays
// up, the other instances solve, the counters account for every instance,
// and the next request is unaffected.
func TestChaosSolvePanicStreamsErrors(t *testing.T) {
	s := newChaosServer(t, Options{},
		fragalign.WithFaultInjector(faultinject.New(1,
			faultinject.Rule{Point: faultinject.SolvePanic, Nth: 2})))
	ts := httptest.NewServer(s)
	defer ts.Close()

	ins := workloads(t, 6, 25)
	resp, err := http.Post(ts.URL+"/v1/solve", "application/x-ndjson",
		bytes.NewReader(jsonlBody(t, ins)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	recs := readRecords(t, resp.Body)
	if len(recs) != len(ins) {
		t.Fatalf("got %d records, want %d", len(recs), len(ins))
	}
	panics, ok := 0, 0
	for _, rec := range recs {
		switch {
		case rec.Error == "":
			ok++
		case strings.Contains(rec.Error, "solver panic"):
			panics++
		default:
			t.Fatalf("record %d: unexpected error %q", rec.Index, rec.Error)
		}
	}
	if panics != 3 || ok != 3 {
		t.Fatalf("got %d panics / %d ok, want 3 / 3", panics, ok)
	}
	if f, k := s.ctr.instancesFail.Load(), s.ctr.instancesOK.Load(); f != 3 || k != 3 {
		t.Fatalf("counters after panics: failed=%d ok=%d, want 3/3", f, k)
	}

	// The 7th solve (odd injection count) proves the server shrugged it off.
	resp, err = http.Post(ts.URL+"/v1/solve", "application/x-ndjson",
		bytes.NewReader(jsonlBody(t, ins[:1])))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	recs = readRecords(t, resp.Body)
	if len(recs) != 1 || recs[0].Error != "" {
		t.Fatalf("request after panic storm: %+v", recs)
	}
}

// TestChaosDrainUnderStall is the drain httptest case with every stall
// point armed: shard-slow and queue-stall delays on the pool plus a
// serve-side handler stall. Drain must still flip health, refuse new work,
// and let the in-flight stalled request finish cleanly.
func TestChaosDrainUnderStall(t *testing.T) {
	s := newChaosServer(t,
		Options{Inject: faultinject.New(3,
			faultinject.Rule{Point: faultinject.ServeStall, Delay: 20 * time.Millisecond})},
		fragalign.WithFaultInjector(faultinject.New(2,
			faultinject.Rule{Point: faultinject.ShardSlow, Delay: 30 * time.Millisecond},
			faultinject.Rule{Point: faultinject.QueueStall, Delay: 10 * time.Millisecond})))
	ts := httptest.NewServer(s)
	defer ts.Close()

	ins := workloads(t, 2, 25)
	pr, pw := io.Pipe()
	type result struct {
		recs []encoding.ResultRecord
		code int
		err  error
	}
	resc := make(chan result, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/solve", "application/x-ndjson", pr)
		if err != nil {
			resc <- result{err: err}
			return
		}
		defer resp.Body.Close()
		var r result
		r.code = resp.StatusCode
		r.err = encoding.ReadJSONLResults(resp.Body, func(rec encoding.ResultRecord) error {
			r.recs = append(r.recs, rec)
			return nil
		})
		resc <- r
	}()
	var buf bytes.Buffer
	if err := encoding.WriteJSONLine(&buf, ins[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := pw.Write(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool { return s.ctr.requests.Load() == 1 })

	s.StartDrain()
	resp, err := http.Post(ts.URL+"/v1/solve", "application/x-ndjson",
		bytes.NewReader(jsonlBody(t, ins)))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("solve during drain: %d, want 503", resp.StatusCode)
	}

	buf.Reset()
	if err := encoding.WriteJSONLine(&buf, ins[1]); err != nil {
		t.Fatal(err)
	}
	if _, err := pw.Write(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	pw.Close()
	got := <-resc
	if got.err != nil {
		t.Fatalf("in-flight request under stalled drain: %v", got.err)
	}
	if got.code != http.StatusOK || len(got.recs) != 2 {
		t.Fatalf("in-flight request under stalled drain: code %d, %d records", got.code, len(got.recs))
	}
	for _, rec := range got.recs {
		if rec.Error != "" {
			t.Fatalf("record %d failed under stalled drain: %s", rec.Index, rec.Error)
		}
	}
	if s.InFlightRequests() != 0 {
		t.Fatalf("in-flight gauge %d after drain, want 0", s.InFlightRequests())
	}
}

// TestChaosDisconnectUnderStall is the mid-stream disconnect case with the
// shards parked in an effectively infinite injected stall: when the client
// vanishes, the stall must wake on the request context, every admitted
// instance must resolve as a failure, and nothing may wedge.
func TestChaosDisconnectUnderStall(t *testing.T) {
	s := newChaosServer(t, Options{},
		fragalign.WithFaultInjector(faultinject.New(5,
			faultinject.Rule{Point: faultinject.ShardSlow, Delay: time.Hour})))
	ts := httptest.NewServer(s)
	defer ts.Close()

	pr, pw := io.Pipe()
	go func() {
		pw.Write(jsonlBody(t, workloads(t, 2, 20)))
		// Keep the pipe open — the server must see disconnect, not EOF.
	}()
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/solve", pr)
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		errc <- err
	}()

	// Both instances admitted and parked inside the injected stall, then
	// the client dies. Waiting for the pool to accept both (not merely for
	// the handler to start) keeps the disconnect from landing before the
	// body is parsed, when there would be nothing to fail.
	waitFor(t, 5*time.Second, func() bool { return s.opts.Pool.Counters().Submitted == 2 })
	cancel()
	pw.Close()
	<-errc

	// The hour-long stall must collapse to the disconnect: both instances
	// resolve as failures long before any real deadline.
	waitFor(t, 10*time.Second, func() bool { return s.ctr.instancesFail.Load() == 2 })
	waitFor(t, 5*time.Second, func() bool { return s.InFlightRequests() == 0 })
}

// TestChaosTenantFairness is the fairness proof on a real server: a
// low-rate tenant sending one instance at a time is never rejected while a
// heavy tenant floods the queue, its latency stays within a constant factor
// of its solo latency, and the heavy tenant still gets the slack.
func TestChaosTenantFairness(t *testing.T) {
	s := newChaosServer(t, Options{},
		fragalign.WithShards(2), fragalign.WithQueueDepth(4))
	ts := httptest.NewServer(s)
	defer ts.Close()

	lightBody := jsonlBody(t, workloads(t, 1, 20))
	heavyBody := jsonlBody(t, workloads(t, 4, 20))
	// A rejected request's unread body makes the server close the
	// connection, so concurrent clients routinely see resets on reused
	// conns: post reports transport errors instead of failing the test.
	post := func(tenant string, body []byte) (int, error) {
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/solve", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("X-Tenant", tenant)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return 0, err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode, nil
	}

	const probes = 6
	lightRound := func() time.Duration {
		var worst time.Duration
		for i := 0; i < probes; i++ {
			start := time.Now()
			code, err := post("light", lightBody)
			for retries := 0; err != nil && retries < 5; retries++ {
				code, err = post("light", lightBody)
			}
			if err != nil {
				t.Fatalf("light request: %v", err)
			}
			if code != http.StatusOK {
				t.Fatalf("light request got %d, want 200", code)
			}
			if d := time.Since(start); d > worst {
				worst = d
			}
		}
		return worst
	}

	// Solo phase: the light tenant alone, worst-case request latency.
	solo := lightRound()

	// Load phase: four heavy clients flood the 4-slot queue (retrying
	// their 429s immediately) while the light tenant probes again.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var heavyOK, heavyRejected atomic.Int64
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				code, err := post("heavy", heavyBody)
				switch {
				case err != nil: // transient transport churn under flood
					time.Sleep(2 * time.Millisecond)
				case code == http.StatusOK:
					heavyOK.Add(1)
				case code == http.StatusTooManyRequests:
					heavyRejected.Add(1)
					time.Sleep(2 * time.Millisecond)
				default:
					t.Errorf("heavy request got %d", code)
					return
				}
			}
		}()
	}
	// Let the flood saturate the queue before probing.
	waitFor(t, 10*time.Second, func() bool {
		return heavyOK.Load()+heavyRejected.Load() > 0
	})
	loaded := lightRound()
	close(stop)
	wg.Wait()

	detail := s.tenants.detail()
	light, heavy := detail["light"], detail["heavy"]
	if light.Rejected != 0 {
		t.Fatalf("light tenant rejected %d times under load; fair admission must admit its guaranteed share", light.Rejected)
	}
	if light.Admitted != 2*probes {
		t.Fatalf("light tenant admitted %d instances, want %d", light.Admitted, 2*probes)
	}
	if heavy.Admitted == 0 {
		t.Fatalf("heavy tenant admitted nothing; fairness must share slack, not starve")
	}
	// Constant-factor latency bound, deliberately loose: the guaranteed
	// share means the light tenant waits for queue turnover, never for the
	// heavy tenant's whole backlog. The absolute term absorbs scheduler
	// noise on slow CI machines.
	if limit := 40*solo + 500*time.Millisecond; loaded > limit {
		t.Fatalf("light tenant worst latency %v under load (solo %v): beyond constant-factor bound %v",
			loaded, solo, limit)
	}
	t.Logf("fairness: light solo=%v loaded=%v; heavy ok=%d rejected=%d",
		solo, loaded, heavyOK.Load(), heavyRejected.Load())
}

// TestChaosMetricsUnderInjection: partial and tenant detail surfaces stay
// coherent when chaos is armed — a deadline fired mid-improve with
// ?partial=1 lands as partial records, counted in /metrics.
func TestChaosMetricsUnderInjection(t *testing.T) {
	s := newChaosServer(t, Options{})
	ts := httptest.NewServer(s)
	defer ts.Close()

	// Large enough to still be improving when a tight deadline fires.
	ins := workloads(t, 2, 60)
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/solve?partial=1&timeout=3ms",
		bytes.NewReader(jsonlBody(t, ins)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Tenant", "deg")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	recs := readRecords(t, resp.Body)
	if len(recs) != len(ins) {
		t.Fatalf("got %d records, want %d", len(recs), len(ins))
	}
	partials := 0
	for _, rec := range recs {
		if rec.Partial {
			partials++
			if rec.Error != "" {
				t.Fatalf("record %d both partial and errored: %s", rec.Index, rec.Error)
			}
			if rec.Score <= 0 {
				t.Fatalf("partial record %d has non-positive score %v", rec.Index, rec.Score)
			}
		}
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var m Metrics
	if err := json.NewDecoder(mresp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	if int(m.Server.PartialResults) != partials {
		t.Fatalf("metrics partial_results %d, records said %d", m.Server.PartialResults, partials)
	}
	tm, ok := m.TenantsDetail["deg"]
	if !ok {
		t.Fatalf("tenant detail missing 'deg': %+v", m.TenantsDetail)
	}
	if tm.Admitted != int64(len(ins)) || tm.InFlight != 0 {
		t.Fatalf("tenant detail for 'deg': %+v, want admitted=%d in_flight=0", tm, len(ins))
	}
}
