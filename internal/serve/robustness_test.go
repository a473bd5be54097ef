package serve

// Robustness-surface tests: the seeded-mode request override, the
// memory-budget 413, the MaxBody 413, and structured 400s for malformed
// instances — every reject a client can hit carries a machine-readable
// JSON body and bumps its own /metrics counter.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	fragalign "repro"
)

func postSolve(t *testing.T, url, query string, body []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/v1/solve"+query, "application/x-ndjson", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp, data
}

func serverMetrics(t *testing.T, url string) ServerMetrics {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m Metrics
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	return m.Server
}

// recordingPool wraps a real pool and keeps every ticket it hands out, so a
// test can inspect what each submission actually solved.
type recordingPool struct {
	Pool
	mu      sync.Mutex
	tickets []Ticket
}

func (p *recordingPool) record(t Ticket, err error) (Ticket, error) {
	if err == nil {
		p.mu.Lock()
		p.tickets = append(p.tickets, t)
		p.mu.Unlock()
	}
	return t, err
}

func (p *recordingPool) Submit(ctx context.Context, in *fragalign.Instance, opts ...fragalign.Option) (Ticket, error) {
	return p.record(p.Pool.Submit(ctx, in, opts...))
}

func (p *recordingPool) TrySubmit(ctx context.Context, in *fragalign.Instance, opts ...fragalign.Option) (Ticket, error) {
	return p.record(p.Pool.TrySubmit(ctx, in, opts...))
}

func (p *recordingPool) submitted() []Ticket {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]Ticket(nil), p.tickets...)
}

// TestSeededQueryOverride: ?seeded=0/1 reaches the solve as a per-submission
// option, absence leaves the pool default untouched, and anything else is a
// 400 before any instance is submitted. Whether a solve ran seeded is read
// off its result: Stats.SeedPairs is non-zero only on seeded solves.
func TestSeededQueryOverride(t *testing.T) {
	body := jsonlBody(t, workloads(t, 1, 40))
	for _, poolSeeded := range []bool{false, true} {
		bp := fragalign.NewBatchPool(fragalign.CSRImprove, fragalign.WithFourApproxSeed(true),
			fragalign.WithShards(1), fragalign.WithSeededCandidates(poolSeeded))
		defer bp.Close()
		rp := &recordingPool{Pool: AdaptBatchPool(bp)}
		s, err := New(Options{Pool: rp, Algorithm: string(fragalign.CSRImprove)})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(s)
		defer ts.Close()

		for _, tc := range []struct {
			query      string
			wantSeeded bool
		}{
			{"?seeded=1", true},
			{"?seeded=0", false},
			{"", poolSeeded},
		} {
			before := len(rp.submitted())
			resp, out := postSolve(t, ts.URL, tc.query, body)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("pool seeded=%v %q: status %d: %s", poolSeeded, tc.query, resp.StatusCode, out)
			}
			tickets := rp.submitted()
			if len(tickets) != before+1 {
				t.Fatalf("pool seeded=%v %q: %d submissions, want 1", poolSeeded, tc.query, len(tickets)-before)
			}
			res, err := tickets[len(tickets)-1].Wait()
			if err != nil {
				t.Fatalf("pool seeded=%v %q: %v", poolSeeded, tc.query, err)
			}
			if got := res.Stats.SeedPairs > 0; got != tc.wantSeeded {
				t.Fatalf("pool seeded=%v %q: solve seeded = %v (SeedPairs %d), want %v",
					poolSeeded, tc.query, got, res.Stats.SeedPairs, tc.wantSeeded)
			}
		}

		before := len(rp.submitted())
		resp, _ := postSolve(t, ts.URL, "?seeded=yes", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("bad seeded value: status %d, want 400", resp.StatusCode)
		}
		if len(rp.submitted()) != before {
			t.Fatal("bad seeded value still submitted instances")
		}
	}
}

// TestSeededSolvesDiffer closes the loop through a real pool: the same
// instance solved ?seeded=0 vs ?seeded=1 exercises different generation
// paths (both must succeed; this is the ROADMAP 9b serving surface).
func TestSeededSolvesDiffer(t *testing.T) {
	s, _ := newRealServer(t)
	ts := httptest.NewServer(s)
	defer ts.Close()
	body := jsonlBody(t, workloads(t, 2, 40))

	for _, q := range []string{"?seeded=0", "?seeded=1"} {
		resp, out := postSolve(t, ts.URL, q, body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", q, resp.StatusCode, out)
		}
		recs := readRecords(t, bytes.NewReader(out))
		if len(recs) != 2 {
			t.Fatalf("%s: %d records, want 2", q, len(recs))
		}
		for _, rec := range recs {
			if rec.Error != "" {
				t.Fatalf("%s: record %d failed: %s", q, rec.Index, rec.Error)
			}
		}
	}
}

// TestOverBudget413 pins the whole-request memory reject: the first instance
// over the pool budget answers 413 with the full cost breakdown, nothing is
// streamed, and both the server and pool over_budget counters move.
func TestOverBudget413(t *testing.T) {
	ins := workloads(t, 1, 40)
	est := fragalign.EstimateMem(ins[0])
	s, _ := newRealServer(t, fragalign.WithMemBudget(est.Total()/2))
	ts := httptest.NewServer(s)
	defer ts.Close()

	resp, out := postSolve(t, ts.URL, "", jsonlBody(t, ins))
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413: %s", resp.StatusCode, out)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type %q, want application/json", ct)
	}
	var doc struct {
		Error         string `json:"error"`
		EstimateBytes int64  `json:"estimate_bytes"`
		SigmaBytes    int64  `json:"sigma_bytes"`
		ScratchBytes  int64  `json:"scratch_bytes"`
		StateBytes    int64  `json:"state_bytes"`
		BudgetBytes   int64  `json:"budget_bytes"`
	}
	if err := json.Unmarshal(out, &doc); err != nil {
		t.Fatalf("413 body is not JSON: %v: %s", err, out)
	}
	if !strings.Contains(doc.Error, "memory budget") {
		t.Fatalf("413 error %q does not name the budget", doc.Error)
	}
	// The server estimates the instance as re-interned from the wire (its
	// symbol IDs, hence σ dimension, can differ from the generator's), so
	// assert consistency rather than equality with the local estimate.
	if doc.BudgetBytes != est.Total()/2 {
		t.Fatalf("budget_bytes = %d, want %d", doc.BudgetBytes, est.Total()/2)
	}
	if doc.EstimateBytes <= doc.BudgetBytes {
		t.Fatalf("413 numbers inconsistent: %+v", doc)
	}
	if doc.SigmaBytes+doc.ScratchBytes+doc.StateBytes != doc.EstimateBytes {
		t.Fatalf("413 breakdown does not sum: %+v", doc)
	}
	m := serverMetrics(t, ts.URL)
	if m.OverBudget != 1 {
		t.Fatalf("server over_budget = %d, want 1", m.OverBudget)
	}
}

// TestOverBudgetMidStream: once records are flowing, a later over-budget
// instance degrades to a per-record error instead of poisoning the stream.
func TestOverBudgetMidStream(t *testing.T) {
	small := workloads(t, 1, 20)[0]
	big := workloads(t, 2, 160)[1]
	estSmall, estBig := fragalign.EstimateMem(small), fragalign.EstimateMem(big)
	if estBig.Total() <= estSmall.Total()*2 {
		t.Fatalf("workload sizing broke: big %v vs small %v", estBig.Total(), estSmall.Total())
	}
	s, _ := newRealServer(t, fragalign.WithMemBudget(estSmall.Total()*2))
	ts := httptest.NewServer(s)
	defer ts.Close()

	resp, out := postSolve(t, ts.URL, "", jsonlBody(t, []*fragalign.Instance{small, big}))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200 (stream already committed): %s", resp.StatusCode, out)
	}
	recs := readRecords(t, bytes.NewReader(out))
	if len(recs) != 2 {
		t.Fatalf("%d records, want 2", len(recs))
	}
	if recs[0].Error != "" {
		t.Fatalf("small instance failed: %s", recs[0].Error)
	}
	if !strings.Contains(recs[1].Error, "memory budget") {
		t.Fatalf("big instance error %q does not name the budget", recs[1].Error)
	}
}

// TestMaxBody413 pins the ingest size limit: an oversize body is a JSON 413
// naming the limit, counted under too_large.
func TestMaxBody413(t *testing.T) {
	s, err := New(Options{Pool: &fakePool{}, Algorithm: "x", MaxBody: 64})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()

	resp, out := postSolve(t, ts.URL, "", bytes.Repeat([]byte("x"), 4096))
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413: %s", resp.StatusCode, out)
	}
	var doc struct {
		Error        string `json:"error"`
		MaxBodyBytes int64  `json:"max_body_bytes"`
	}
	if err := json.Unmarshal(out, &doc); err != nil {
		t.Fatalf("413 body is not JSON: %v: %s", err, out)
	}
	if doc.MaxBodyBytes != 64 {
		t.Fatalf("max_body_bytes = %d, want 64", doc.MaxBodyBytes)
	}
	if m := serverMetrics(t, ts.URL); m.TooLarge != 1 {
		t.Fatalf("server too_large = %d, want 1", m.TooLarge)
	}
}

// TestMalformedInstance400 pins the structured ingest rejects: duplicate
// fragment ids, fragments without scores, and non-finite score values all
// answer a JSON 400 naming the defect, counted under bad_input.
func TestMalformedInstance400(t *testing.T) {
	s, err := New(Options{Pool: &fakePool{}, Algorithm: "x"})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()

	for name, tc := range map[string]struct {
		line string
		want string
	}{
		"duplicate-fragment-id": {
			`{"name":"dup","scores":[{"a":"x","b":"x","v":1}],"h":[{"name":"f1","regions":["x"]},{"name":"f1","regions":["x"]}],"m":[]}`,
			"duplicate",
		},
		"empty-score-table": {
			`{"name":"noscores","scores":[],"h":[{"name":"f1","regions":["x"]}],"m":[]}`,
			"empty score table",
		},
		"not-json": {
			`{not json`,
			"",
		},
	} {
		t.Run(name, func(t *testing.T) {
			resp, out := postSolve(t, ts.URL, "", []byte(tc.line+"\n"))
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d, want 400: %s", resp.StatusCode, out)
			}
			if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
				t.Fatalf("Content-Type %q, want application/json", ct)
			}
			var doc struct {
				Error string `json:"error"`
			}
			if err := json.Unmarshal(out, &doc); err != nil {
				t.Fatalf("400 body is not JSON: %v: %s", err, out)
			}
			if !strings.Contains(doc.Error, tc.want) {
				t.Fatalf("400 error %q does not mention %q", doc.Error, tc.want)
			}
		})
	}
	if m := serverMetrics(t, ts.URL); m.BadInput != 3 {
		t.Fatalf("server bad_input = %d, want 3", m.BadInput)
	}
}

// TestMidStreamBadInputKeepsConnection: a stream that hits a bad line after
// its first record leaves the rest of the body unread. The server must
// drain it before the response ends, so the kept-alive connection serves
// the next request. Left to net/http's post-handler discard, the
// connection's next read collides with a background read the discard
// starts, and the server drops the connection.
func TestMidStreamBadInputKeepsConnection(t *testing.T) {
	s, err := New(Options{Pool: &fakePool{}, Algorithm: "x"})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()
	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	br := bufio.NewReader(conn)
	send := func(head string, parts ...[]byte) {
		t.Helper()
		if _, err := io.WriteString(conn, head); err != nil {
			t.Fatal(err)
		}
		for _, p := range parts {
			if _, err := conn.Write(p); err != nil {
				t.Fatal(err)
			}
		}
	}
	head := func(n int) string {
		return fmt.Sprintf("POST /v1/solve HTTP/1.1\r\nHost: x\r\nContent-Type: application/x-ndjson\r\nContent-Length: %d\r\n\r\n", n)
	}

	// The tail is sent only once the error record is out, so the reader
	// has certainly stopped before it.
	first := append(jsonlBody(t, workloads(t, 1, 20)), "{bad\n"...)
	tail := bytes.Repeat([]byte(" \n"), 1<<15)
	send(head(len(first)+len(tail)), first)
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200 (the first record streams before the bad line)", resp.StatusCode)
	}
	lines := bufio.NewReader(resp.Body)
	for {
		line, err := lines.ReadString('\n')
		if err != nil {
			t.Fatalf("stream ended without the input error record: %v", err)
		}
		if strings.Contains(line, `"index":-1`) {
			break
		}
	}
	send("", tail)
	io.Copy(io.Discard, lines)
	resp.Body.Close()

	good := jsonlBody(t, workloads(t, 1, 20))
	send(head(len(good)), good)
	resp, err = http.ReadResponse(br, nil)
	if err != nil {
		t.Fatalf("second request on the kept-alive connection: %v", err)
	}
	defer resp.Body.Close()
	if recs := readRecords(t, resp.Body); resp.StatusCode != http.StatusOK || len(recs) != 1 || recs[0].Error != "" {
		t.Fatalf("second request: status %d, records %+v", resp.StatusCode, recs)
	}
}
