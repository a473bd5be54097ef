package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	fragalign "repro"
	"repro/internal/encoding"
)

func workloads(t *testing.T, n, regions int) []*fragalign.Instance {
	t.Helper()
	ins := make([]*fragalign.Instance, n)
	for i := range ins {
		cfg := fragalign.DefaultGenConfig(int64(700 + i))
		cfg.Regions = regions
		ins[i] = fragalign.Generate(cfg).Instance
		ins[i].Name = fmt.Sprintf("w%d", i)
	}
	return ins
}

func jsonlBody(t *testing.T, ins []*fragalign.Instance) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, in := range ins {
		if err := encoding.WriteJSONLine(&buf, in); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

func readRecords(t *testing.T, r io.Reader) []encoding.ResultRecord {
	t.Helper()
	var recs []encoding.ResultRecord
	if err := encoding.ReadJSONLResults(r, func(rec encoding.ResultRecord) error {
		recs = append(recs, rec)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return recs
}

func newRealServer(t *testing.T, opts ...fragalign.Option) (*Server, *fragalign.BatchPool) {
	t.Helper()
	opts = append([]fragalign.Option{fragalign.WithFourApproxSeed(true), fragalign.WithShards(4)}, opts...)
	bp := fragalign.NewBatchPool(fragalign.CSRImprove, opts...)
	t.Cleanup(bp.Close)
	s, err := New(Options{Pool: AdaptBatchPool(bp), Algorithm: string(fragalign.CSRImprove)})
	if err != nil {
		t.Fatal(err)
	}
	return s, bp
}

// TestSolveRoundTrip pins the serving contract: a POST /v1/solve stream
// resolves to exactly the records SolveBatch produces for the same input,
// in submission order.
func TestSolveRoundTrip(t *testing.T) {
	s, _ := newRealServer(t)
	ts := httptest.NewServer(s)
	defer ts.Close()

	ins := workloads(t, 6, 40)
	want, err := fragalign.SolveBatch(context.Background(), ins, fragalign.CSRImprove,
		fragalign.WithFourApproxSeed(true))
	if err != nil {
		t.Fatal(err)
	}

	resp, err := http.Post(ts.URL+"/v1/solve", "application/x-ndjson",
		bytes.NewReader(jsonlBody(t, ins)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	recs := readRecords(t, resp.Body)
	if len(recs) != len(ins) {
		t.Fatalf("got %d records, want %d", len(recs), len(ins))
	}
	for i, rec := range recs {
		if rec.Index != i {
			t.Fatalf("record %d has index %d; want submission order", i, rec.Index)
		}
		if rec.Error != "" {
			t.Fatalf("record %d failed: %s", i, rec.Error)
		}
		if rec.Name != ins[i].Name || rec.Algorithm != string(fragalign.CSRImprove) {
			t.Fatalf("record %d identity mismatch: %+v", i, rec)
		}
		if rec.Score != want[i].Score {
			t.Fatalf("record %d score %v, want %v", i, rec.Score, want[i].Score)
		}
		if rec.Matches != len(want[i].Solution.Matches) {
			t.Fatalf("record %d matches %d, want %d", i, rec.Matches, len(want[i].Solution.Matches))
		}
		if rec.Rounds != want[i].Stats.Rounds {
			t.Fatalf("record %d rounds %d, want %d", i, rec.Rounds, want[i].Stats.Rounds)
		}
	}
}

// TestSolveCompletionOrder: ?order=completion streams the same record set
// as submission order, just not necessarily sorted.
func TestSolveCompletionOrder(t *testing.T) {
	s, _ := newRealServer(t)
	ts := httptest.NewServer(s)
	defer ts.Close()

	ins := workloads(t, 8, 30)
	resp, err := http.Post(ts.URL+"/v1/solve?order=completion", "application/x-ndjson",
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
	seen := make(map[int]bool)
	for _, rec := range recs {
		if rec.Error != "" {
			t.Fatalf("record %d failed: %s", rec.Index, rec.Error)
		}
		if seen[rec.Index] {
			t.Fatalf("index %d emitted twice", rec.Index)
		}
		seen[rec.Index] = true
	}
	for i := range ins {
		if !seen[i] {
			t.Fatalf("index %d missing from completion-order stream", i)
		}
	}
}

// TestEmptyAndMalformedInput: empty body is an empty 200 stream; garbage
// with no prior output is a 400.
func TestEmptyAndMalformedInput(t *testing.T) {
	s, _ := newRealServer(t)
	ts := httptest.NewServer(s)
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/v1/solve", "application/x-ndjson", strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("empty input: status %d, want 200", resp.StatusCode)
	}

	resp, err = http.Post(ts.URL+"/v1/solve", "application/x-ndjson", strings.NewReader("{not json\n"))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed input: status %d, want 400", resp.StatusCode)
	}
	if !resp.Close {
		t.Fatal("400 keeps the connection alive over an unread request body")
	}

	resp, err = http.Post(ts.URL+"/v1/solve?order=sideways", "application/x-ndjson", strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad order: status %d, want 400", resp.StatusCode)
	}
}

// fakeTicket resolves immediately with res, or blocks until its context
// fires and resolves with the context error.
type fakeTicket struct {
	ctx context.Context
	res *fragalign.Result
}

func (t *fakeTicket) Wait() (*fragalign.Result, error) {
	if t.res != nil {
		return t.res, nil
	}
	<-t.ctx.Done()
	return nil, t.ctx.Err()
}

// fakePool is a deterministic backend: optionally rejecting all TrySubmits
// and/or blocking every ticket on its instance context.
type fakePool struct {
	reject bool // TrySubmit always ErrQueueFull
	block  bool // tickets resolve only on context cancellation

	mu   sync.Mutex
	ctxs []context.Context
}

func (p *fakePool) Submit(ctx context.Context, in *fragalign.Instance, _ ...fragalign.Option) (Ticket, error) {
	p.mu.Lock()
	p.ctxs = append(p.ctxs, ctx)
	p.mu.Unlock()
	if p.block {
		return &fakeTicket{ctx: ctx}, nil
	}
	return &fakeTicket{res: &fragalign.Result{Score: 1, Wall: time.Millisecond}}, nil
}

func (p *fakePool) TrySubmit(ctx context.Context, in *fragalign.Instance, _ ...fragalign.Option) (Ticket, error) {
	if p.reject {
		return nil, fragalign.ErrQueueFull
	}
	return p.Submit(ctx, in)
}

func (p *fakePool) Counters() fragalign.BatchCounters {
	return fragalign.BatchCounters{QueueCap: 8, ShardBusy: []time.Duration{0}}
}

func (p *fakePool) Shards() int { return 1 }

func (p *fakePool) contexts() []context.Context {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]context.Context(nil), p.ctxs...)
}

// TestAdmission429: a tenant at its in-flight cap is refused before any
// response byte is written — 429, Retry-After set, nothing streamed — while
// an unrelated tenant still gets in.
func TestAdmission429(t *testing.T) {
	fp := &fakePool{block: true}
	s, err := New(Options{Pool: fp, Algorithm: "x", TenantMaxInflight: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()

	// First request from t1 is admitted and parks on its blocked ticket
	// (released by canceling the client context at the end).
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	pr, pw := io.Pipe()
	go pw.Write(jsonlBody(t, workloads(t, 1, 20)))
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/solve", pr)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Tenant", "t1")
	done := make(chan struct{})
	go func() {
		defer close(done)
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	waitFor(t, 5*time.Second, func() bool { return len(fp.contexts()) == 1 })

	// Second t1 request hits the per-tenant cap: whole-request 429. (The
	// ?timeout lets admitted requests resolve their blocked tickets.)
	post := func(tenant string) *http.Response {
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/solve?timeout=50ms",
			bytes.NewReader(jsonlBody(t, workloads(t, 1, 20))))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("X-Tenant", tenant)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	resp := post("t1")
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	if !resp.Close {
		t.Fatal("429 keeps the connection alive over an unread request body")
	}
	if got, _ := io.ReadAll(resp.Body); !strings.Contains(string(got), "queue full") {
		t.Fatalf("429 body %q", got)
	}
	if n := s.ctr.rejected.Load(); n != 1 {
		t.Fatalf("rejected counter %d, want 1", n)
	}

	// A different tenant is unaffected by t1's cap.
	resp2 := post("t2")
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode == http.StatusTooManyRequests {
		t.Fatal("t2 refused because t1 is at its cap")
	}

	cancel()
	pw.Close()
	<-done
}

// TestAdmissionSlackQueueFull exercises the slack path end to end: an
// at-share tenant's request falls back to non-blocking submission and is
// refused when the queue is actually full, with the reservation rolled
// back.
func TestAdmissionSlackQueueFull(t *testing.T) {
	// TrySubmit always fails (reject), Submit admits but blocks tickets:
	// capacity 8, tenant "heavy" parks 4 in-flight instances (exactly its
	// 8/2 share once "light" is active) across two held requests — two
	// instances each, so every reader returns to its body read and the
	// server can notice client disconnects at cleanup — and "light" parks
	// 1. heavy's next request is at share with global headroom → slack →
	// TrySubmit → 429.
	fp := &fakePool{block: true, reject: true}
	s, err := New(Options{Pool: fp, Algorithm: "x"}) // capacity = fake QueueCap = 8
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()

	hold := func(tenant string, n int) func() {
		ctx, cancel := context.WithCancel(context.Background())
		pr, pw := io.Pipe()
		go pw.Write(jsonlBody(t, workloads(t, n, 20)))
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/solve", pr)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("X-Tenant", tenant)
		done := make(chan struct{})
		go func() {
			defer close(done)
			resp, err := http.DefaultClient.Do(req)
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
		return func() { cancel(); pw.Close(); <-done }
	}
	finishHeavy1 := hold("heavy", 2)
	defer finishHeavy1()
	waitFor(t, 5*time.Second, func() bool { return len(fp.contexts()) == 2 })
	finishHeavy2 := hold("heavy", 2)
	defer finishHeavy2()
	waitFor(t, 5*time.Second, func() bool { return len(fp.contexts()) == 4 })
	finishLight := hold("light", 1)
	defer finishLight()
	waitFor(t, 5*time.Second, func() bool { return len(fp.contexts()) == 5 })

	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/solve",
		bytes.NewReader(jsonlBody(t, workloads(t, 1, 20))))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Tenant", "heavy")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("slack-path status %d, want 429", resp.StatusCode)
	}
	// The failed slack reservation must roll back: heavy still shows
	// exactly 4 in-flight instances, and the rejection is booked to it.
	d := s.tenants.detail()
	if h := d["heavy"]; h.InFlight != 4 || h.Rejected != 1 {
		t.Fatalf("heavy after slack rejection: %+v", h)
	}
	if l := d["light"]; l.InFlight != 1 || l.Rejected != 0 {
		t.Fatalf("light after heavy's rejection: %+v", l)
	}
}

// TestAdmitFirstDecisions pins the fair-share decision table at the unit
// level: guaranteed below share, slack at share with headroom, reject over
// cap / over capacity / over the 2×capacity in-share bound, and
// weight-proportional shares.
func TestAdmitFirstDecisions(t *testing.T) {
	const capacity = 8
	tc := newTenantCache(16, map[string]float64{"vip": 3}, 1)
	park := func(key string, n int) *tenantEntry {
		e := tc.acquire(key)
		for i := 0; i < n; i++ {
			tc.reserve(e)
		}
		return e
	}
	decide := func(e *tenantEntry, maxInflight int) admitDecision {
		d, _ := tc.admitFirst(e, capacity, maxInflight)
		if d != admitReject {
			// Roll the probe's reservation back so decisions stay
			// independent.
			tc.mu.Lock()
			e.inflight--
			tc.total--
			e.admitted--
			tc.mu.Unlock()
		}
		return d
	}

	// Solo tenant: whole capacity is its share.
	solo := park("solo", 0)
	if d := decide(solo, 0); d != admitGuaranteed {
		t.Fatalf("fresh solo tenant: %v, want guaranteed", d)
	}
	park("solo", capacity-1) // share-1 in flight: still guaranteed
	if d := decide(solo, 0); d != admitGuaranteed {
		t.Fatalf("solo below share: %v, want guaranteed", d)
	}
	tc.reserve(solo) // at share AND at capacity: no slack left
	if d := decide(solo, 0); d != admitReject {
		t.Fatalf("solo at capacity: %v, want reject", d)
	}
	for i := 0; i < capacity; i++ {
		tc.finishInstance(solo)
	}

	// Two equal tenants split the capacity 4/4; the under-share one is
	// guaranteed even while the other holds 6.
	heavy := park("heavy", 6)
	light := park("light", 1)
	if d := decide(light, 0); d != admitGuaranteed {
		t.Fatalf("under-share tenant: %v, want guaranteed", d)
	}
	if d := decide(heavy, 0); d != admitSlack {
		t.Fatalf("over-share tenant with headroom: %v, want slack", d)
	}
	park("heavy", 1) // total now 8 = capacity: no slack
	if d := decide(heavy, 0); d != admitReject {
		t.Fatalf("over-share tenant without headroom: %v, want reject", d)
	}
	// The under-share tenant still gets the guaranteed path past a full
	// queue — the point of fair admission.
	if d := decide(light, 0); d != admitGuaranteed {
		t.Fatalf("under-share tenant at full queue: %v, want guaranteed", d)
	}

	// Per-tenant cap trumps share.
	if d := decide(light, 1); d != admitReject {
		t.Fatalf("tenant at its cap: %v, want reject", d)
	}

	// Weighted share: vip (weight 3) vs heavy+light (1 each) gets
	// 8·3/5 = 4 guaranteed slots even with the queue saturated; its 5th
	// would be over share.
	vip := park("vip", 3)
	if d := decide(vip, 0); d != admitGuaranteed {
		t.Fatalf("weighted tenant below its share: %v, want guaranteed", d)
	}
	park("vip", 1)
	if d := decide(vip, 0); d != admitReject {
		t.Fatalf("weighted tenant at share, queue full: %v, want reject", d)
	}

	// One tenant's backlog past its share never counts against another
	// tenant's guarantee: a fresh tenant is guaranteed beside a glutton
	// holding 4×capacity reservations (the heavy flood of
	// TestChaosTenantFairness, where the old total-based cap refused the
	// light tenant 429).
	glutton := park("glutton", 0)
	tc.mu.Lock()
	for tc.total < 4*capacity {
		glutton.inflight++
		tc.total++
	}
	tc.mu.Unlock()
	newbie := park("newbie", 0)
	if d := decide(newbie, 0); d != admitGuaranteed {
		t.Fatalf("fresh tenant beside a 4×capacity backlog: %v, want guaranteed", d)
	}

	// Hard global bound: tenants crowding in, each holding the one slot a
	// crowded share leaves it, stop guaranteed admission exactly when the
	// in-share load reaches 2×capacity.
	for i := 0; decide(newbie, 0) == admitGuaranteed; i++ {
		if i == 64 {
			t.Fatal("guaranteed admission never stopped")
		}
		park(fmt.Sprintf("crowd%d", i), 1)
	}
	tc.mu.Lock()
	_, inShare := tc.shareLocked(newbie, capacity, 0)
	tc.mu.Unlock()
	if inShare != 2*capacity {
		t.Fatalf("guaranteed admission stopped at in-share load %d, want %d", inShare, 2*capacity)
	}
}

// TestTenantEvictionPinning is the regression test for the evict-then-
// recreate race: an entry held by a live request must never be evicted, so
// two concurrent requests of one tenant always share one interner.
func TestTenantEvictionPinning(t *testing.T) {
	tc := newTenantCache(1, nil, 1)
	a1 := tc.acquire("a")
	b := tc.acquire("b") // over the bound: "a" is pinned, so no eviction
	a2 := tc.acquire("a")
	if a1 != a2 {
		t.Fatal("concurrent requests of one tenant got different entries")
	}
	if a1.si != a2.si {
		t.Fatal("concurrent requests of one tenant got different interners")
	}
	tc.release(a1)
	tc.release(a2)
	tc.release(b)
	// With "a" idle, the bound applies again: acquiring "c" evicts one.
	c := tc.acquire("c")
	if tc.len() > 2 {
		t.Fatalf("cache size %d after eviction opportunity", tc.len())
	}
	tc.release(c)

	// Hammer the invariant under -race: for any key, every entry held at
	// the same moment must be identical.
	tc2 := newTenantCache(2, nil, 1)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			key := fmt.Sprintf("k%d", g%4)
			for i := 0; i < 500; i++ {
				e1 := tc2.acquire(key)
				e2 := tc2.acquire(key)
				if e1 != e2 {
					t.Errorf("key %s: concurrent acquires diverged", key)
				}
				tc2.release(e2)
				tc2.release(e1)
			}
		}()
	}
	wg.Wait()
}

// TestPerRequestDeadline: ?timeout= gives every instance of the request
// its own solve deadline; an impossible deadline yields per-instance error
// records, not a dead stream.
func TestPerRequestDeadline(t *testing.T) {
	s, _ := newRealServer(t)
	ts := httptest.NewServer(s)
	defer ts.Close()

	ins := workloads(t, 4, 30)
	resp, err := http.Post(ts.URL+"/v1/solve?timeout=1ns", "application/x-ndjson",
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
	for _, rec := range recs {
		if rec.Error == "" {
			t.Fatalf("record %d solved under a 1ns deadline", rec.Index)
		}
		if !strings.Contains(rec.Error, context.DeadlineExceeded.Error()) {
			t.Fatalf("record %d error %q, want deadline exceeded", rec.Index, rec.Error)
		}
	}

	resp, err = http.Post(ts.URL+"/v1/solve?timeout=bogus", "application/x-ndjson",
		strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad timeout: status %d, want 400", resp.StatusCode)
	}
}

// TestMidStreamDisconnect: when the client goes away mid-stream, every
// per-instance context the server handed the pool must cancel, and the
// handler must still drain its tickets (failures land in the metrics).
func TestMidStreamDisconnect(t *testing.T) {
	fp := &fakePool{block: true}
	s, err := New(Options{Pool: fp, Algorithm: "x"})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()

	// Body is a pipe held open: the server admits the instances it has
	// received, their tickets block, then the client vanishes.
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

	// Wait until both instances are admitted, then kill the client.
	deadline := time.After(5 * time.Second)
	for len(fp.contexts()) < 2 {
		select {
		case <-deadline:
			t.Fatal("instances never reached the pool")
		case <-time.After(time.Millisecond):
		}
	}
	cancel()
	pw.Close()
	<-errc

	for i, ictx := range fp.contexts() {
		select {
		case <-ictx.Done():
		case <-time.After(5 * time.Second):
			t.Fatalf("instance %d context not canceled after client disconnect", i)
		}
	}
	waitFor(t, 5*time.Second, func() bool { return s.ctr.instancesFail.Load() == 2 })
}

func waitFor(t *testing.T, d time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in time")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestDrain: StartDrain flips /healthz to 503 and refuses new solves while
// an in-flight request runs to completion.
func TestDrain(t *testing.T) {
	s, _ := newRealServer(t)
	ts := httptest.NewServer(s)
	defer ts.Close()

	get := func(path string) int {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := get("/healthz"); code != http.StatusOK {
		t.Fatalf("healthz before drain: %d", code)
	}

	// Start a request, hold its body open so it is in flight across the
	// drain flip, then finish it: it must complete normally.
	ins := workloads(t, 2, 30)
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
	if err := func() error {
		var buf bytes.Buffer
		if err := encoding.WriteJSONLine(&buf, ins[0]); err != nil {
			return err
		}
		_, err := pw.Write(buf.Bytes())
		return err
	}(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool { return s.ctr.requests.Load() == 1 })

	s.StartDrain()
	if code := get("/healthz"); code != http.StatusServiceUnavailable {
		t.Fatalf("healthz during drain: %d, want 503", code)
	}
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
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("drain 503 without Retry-After")
	}

	// The in-flight request finishes cleanly under drain.
	var buf bytes.Buffer
	if err := encoding.WriteJSONLine(&buf, ins[1]); err != nil {
		t.Fatal(err)
	}
	if _, err := pw.Write(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	pw.Close()
	got := <-resc
	if got.err != nil {
		t.Fatalf("in-flight request under drain: %v", got.err)
	}
	if got.code != http.StatusOK || len(got.recs) != 2 {
		t.Fatalf("in-flight request under drain: code %d, %d records", got.code, len(got.recs))
	}
	for _, rec := range got.recs {
		if rec.Error != "" {
			t.Fatalf("record %d failed under drain: %s", rec.Index, rec.Error)
		}
	}
	if n := s.ctr.drainRejected.Load(); n != 1 {
		t.Fatalf("drain_rejected %d, want 1", n)
	}
}

// TestMetricsSnapshot: the /metrics document carries the pool, server, and
// improve sections with live values after traffic.
func TestMetricsSnapshot(t *testing.T) {
	s, _ := newRealServer(t)
	ts := httptest.NewServer(s)
	defer ts.Close()

	ins := workloads(t, 3, 30)
	resp, err := http.Post(ts.URL+"/v1/solve", "application/x-ndjson",
		bytes.NewReader(jsonlBody(t, ins)))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	if ct := mresp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("metrics content type %q", ct)
	}
	var m Metrics
	if err := json.NewDecoder(mresp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	if m.Pool.Shards != 4 || m.Pool.QueueCap <= 0 || len(m.Pool.ShardBusyMS) != 4 {
		t.Fatalf("pool section: %+v", m.Pool)
	}
	if m.Pool.Completed != 3 || m.Pool.Submitted != 3 {
		t.Fatalf("pool counters: %+v", m.Pool)
	}
	if m.Server.Requests != 1 || m.Server.InstancesSolved != 3 || m.Server.RecordsWritten != 3 {
		t.Fatalf("server section: %+v", m.Server)
	}
	if m.Server.BytesStreamed <= 0 || m.Server.MeanSolveMS < 0 || m.Server.UptimeSeconds <= 0 {
		t.Fatalf("server derived values: %+v", m.Server)
	}
	if m.Improve.Rounds <= 0 || m.Improve.Evaluated <= 0 {
		t.Fatalf("improve section: %+v", m.Improve)
	}
}

// TestTenantAffinity: two requests sharing a tenant and σ content compile
// the alphabet once (one σ-cache miss, then hits); anonymous requests
// recompile per request.
func TestTenantAffinity(t *testing.T) {
	s, bp := newRealServer(t)
	ts := httptest.NewServer(s)
	defer ts.Close()

	post := func(tenant string) {
		cfg := fragalign.DefaultGenConfig(900) // same seed: same σ content
		cfg.Regions = 30
		in := fragalign.Generate(cfg).Instance
		in.Name = "affine"
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/solve",
			bytes.NewReader(jsonlBody(t, []*fragalign.Instance{in})))
		if err != nil {
			t.Fatal(err)
		}
		if tenant != "" {
			req.Header.Set("X-Tenant", tenant)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d", resp.StatusCode)
		}
	}

	post("acme")
	base := bp.Counters()
	if base.SigmaMisses != 1 {
		t.Fatalf("first tenant request: %d σ misses, want 1", base.SigmaMisses)
	}
	post("acme")
	post("acme")
	after := bp.Counters()
	if after.SigmaMisses != 1 {
		t.Fatalf("repeat tenant requests recompiled σ: %d misses", after.SigmaMisses)
	}
	if after.SigmaHits < base.SigmaHits+2 {
		t.Fatalf("σ hits %d, want ≥ %d", after.SigmaHits, base.SigmaHits+2)
	}

	post("") // anonymous: fresh interner, fresh table identity, new miss
	if c := bp.Counters(); c.SigmaMisses != 2 {
		t.Fatalf("anonymous request: %d σ misses, want 2", c.SigmaMisses)
	}

	if s.tenants.len() != 1 {
		t.Fatalf("tenant cache size %d, want 1", s.tenants.len())
	}
}
