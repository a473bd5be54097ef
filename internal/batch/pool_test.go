package batch

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/improve"
	"repro/internal/score"
)

// testInstances generates n distinct workloads.
func testInstances(t testing.TB, n, regions int) []*core.Instance {
	t.Helper()
	ins := make([]*core.Instance, n)
	for i := range ins {
		cfg := gen.DefaultConfig(int64(100 + i))
		cfg.Regions = regions
		ins[i] = gen.Generate(cfg).Instance
		ins[i].Name = fmt.Sprintf("w%d", i)
	}
	return ins
}

// improveSolver runs CSR_Improve and renders the solution as a canonical
// string, so "byte-identical results" is literal string equality.
func improveSolver(ctx context.Context, in *core.Instance) (any, error) {
	sol, stats, err := improve.Improve(in, improve.Options{
		Eps:                0.05,
		SeedWithFourApprox: true,
		Ctx:                ctx,
	})
	if err != nil {
		return nil, err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s score=%v rounds=%d matches=[", in.Name, sol.Score(), stats.Rounds)
	for _, mt := range sol.Matches {
		fmt.Fprintf(&b, "%v~%v/%v:%v ", mt.HSite, mt.MSite, mt.Rev, mt.Score)
	}
	b.WriteString("]")
	return b.String(), nil
}

func TestPoolSolvesInOrder(t *testing.T) {
	ins := testInstances(t, 6, 30)
	p := New(Options{Shards: 3, Solve: improveSolver})
	defer p.Close()
	results, errs, err := p.SolveAll(context.Background(), ins)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ins {
		if errs[i] != nil {
			t.Fatalf("instance %d: %v", i, errs[i])
		}
		got := results[i].(string)
		if !strings.HasPrefix(got, ins[i].Name+" ") {
			t.Fatalf("result %d out of order: %q", i, got)
		}
	}
}

// TestShardCountInvariance is the batch determinism contract: the same
// instance set solved with 1, 4, and 8 shards produces byte-identical
// per-instance results.
func TestShardCountInvariance(t *testing.T) {
	ins := testInstances(t, 8, 40)
	var reference []string
	for _, shards := range []int{1, 4, 8} {
		p := New(Options{Shards: shards, Solve: improveSolver})
		results, errs, err := p.SolveAll(context.Background(), ins)
		p.Close()
		if err != nil {
			t.Fatal(err)
		}
		rendered := make([]string, len(ins))
		for i := range ins {
			if errs[i] != nil {
				t.Fatalf("shards=%d instance %d: %v", shards, i, errs[i])
			}
			rendered[i] = results[i].(string)
		}
		if reference == nil {
			reference = rendered
			continue
		}
		for i := range rendered {
			if rendered[i] != reference[i] {
				t.Fatalf("shards=%d instance %d diverged:\n  got  %s\n  want %s",
					shards, i, rendered[i], reference[i])
			}
		}
	}
}

// TestPoolConcurrentSubmit stress-tests one pool under concurrent
// submitters (run under -race in CI): every resubmission of the same
// instance must produce the identical result.
func TestPoolConcurrentSubmit(t *testing.T) {
	ins := testInstances(t, 4, 30)
	p := New(Options{Shards: 4, Queue: 2, Solve: improveSolver})
	defer p.Close()

	want := make([]string, len(ins))
	for i, in := range ins {
		tk, err := p.Submit(context.Background(), in)
		if err != nil {
			t.Fatal(err)
		}
		v, err := tk.Wait()
		if err != nil {
			t.Fatal(err)
		}
		want[i] = v.(string)
	}

	const submitters = 8
	var wg sync.WaitGroup
	errc := make(chan error, submitters)
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i, in := range ins {
				tk, err := p.Submit(context.Background(), in)
				if err != nil {
					errc <- fmt.Errorf("submitter %d: %w", g, err)
					return
				}
				v, err := tk.Wait()
				if err != nil {
					errc <- fmt.Errorf("submitter %d instance %d: %w", g, i, err)
					return
				}
				if v.(string) != want[i] {
					errc <- fmt.Errorf("submitter %d instance %d: nondeterministic result", g, i)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

func TestSigmaCacheSharedAcrossInstances(t *testing.T) {
	var c sigCache
	c.init()
	tb := score.NewTable()
	tb.Set(1, 1, 2.5)
	a := c.get(tb, 4)
	b := c.get(tb, 4)
	if a != b {
		t.Fatal("same scorer compiled twice")
	}
	cp, ok := a.(*score.Compiled)
	if !ok || cp.MaxID() < 4 {
		t.Fatalf("cache returned %T covering %v", a, cp.MaxID())
	}
	// A wider alphabet forces a recompile; the cache must upgrade.
	w := c.get(tb, 9).(*score.Compiled)
	if w == cp || w.MaxID() < 9 {
		t.Fatalf("cache did not widen: %v", w.MaxID())
	}
	// Already-compiled scorers pass through untouched.
	if got := c.get(w, 9); got != w {
		t.Fatal("compiled scorer was re-wrapped")
	}
	other := score.NewTable()
	other.Set(1, 2, 1.0)
	if c.get(other, 4) == a {
		t.Fatal("distinct scorers shared one matrix")
	}
}

func TestSubmitAfterClose(t *testing.T) {
	ins := testInstances(t, 1, 20)
	p := New(Options{Shards: 1, Solve: improveSolver})
	p.Close()
	p.Close() // idempotent
	if _, err := p.Submit(context.Background(), ins[0]); !errors.Is(err, ErrClosed) {
		t.Fatalf("Submit after Close: %v", err)
	}
}

func TestPerInstanceContext(t *testing.T) {
	ins := testInstances(t, 1, 20)
	p := New(Options{Shards: 1, Solve: improveSolver})
	defer p.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	tk, err := p.Submit(ctx, ins[0])
	if err != nil {
		// Allowed: the canceled context can also fail the submit itself.
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Submit: %v", err)
		}
		return
	}
	if _, err := tk.Wait(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Wait after cancel: %v", err)
	}
}

// pollDeadlineCtx is a deterministic deadline: Err reports
// context.DeadlineExceeded from poll after+1 on, and Done closes at that
// same poll, so the two always agree. It cancels mid-solve at a chosen
// depth without racing a wall clock against the solve.
type pollDeadlineCtx struct {
	context.Context
	polls atomic.Int64
	after int64
	once  sync.Once
	done  chan struct{}
}

func newPollDeadlineCtx(after int64) *pollDeadlineCtx {
	return &pollDeadlineCtx{Context: context.Background(), after: after, done: make(chan struct{})}
}

func (c *pollDeadlineCtx) Done() <-chan struct{} { return c.done }

func (c *pollDeadlineCtx) Err() error {
	if c.polls.Add(1) > c.after {
		c.once.Do(func() { close(c.done) })
		return context.DeadlineExceeded
	}
	return nil
}

// TestPerInstanceDeadlineSubRound pins the fine-grained cancellation path:
// a deadline that fires mid-solve on a large instance must surface as that
// instance's error before the solve would have finished, while other
// instances sharing the pool complete normally with results identical to
// an undisturbed pool. The deadline is poll-counted:
// the undisturbed run counts the big solve's context polls, and the
// disturbed run expires at half that count.
func TestPerInstanceDeadlineSubRound(t *testing.T) {
	big := testInstances(t, 1, 90)[0]
	small := testInstances(t, 3, 30)
	run := func(bigCtx context.Context) ([]any, []error) {
		p := New(Options{Shards: 2, Solve: improveSolver})
		defer p.Close()
		ctx := context.Background()
		var tickets []*Ticket
		tb, err := p.Submit(bigCtx, big)
		if err != nil {
			t.Fatal(err)
		}
		tickets = append(tickets, tb)
		for _, in := range small {
			tk, err := p.Submit(ctx, in)
			if err != nil {
				t.Fatal(err)
			}
			tickets = append(tickets, tk)
		}
		results := make([]any, len(tickets))
		errs := make([]error, len(tickets))
		for i, tk := range tickets {
			results[i], errs[i] = tk.Wait()
		}
		return results, errs
	}
	never := newPollDeadlineCtx(math.MaxInt64)
	ref, refErrs := run(never)
	for i, err := range refErrs {
		if err != nil {
			t.Fatalf("reference instance %d: %v", i, err)
		}
	}
	total := never.polls.Load()
	if total < 4 {
		t.Fatalf("undisturbed big solve polled its context %d times; too few to cancel mid-solve", total)
	}
	dl := newPollDeadlineCtx(total / 2)
	got, errs := run(dl)
	if !errors.Is(errs[0], context.DeadlineExceeded) {
		t.Fatalf("big instance error = %v, want deadline exceeded", errs[0])
	}
	// The deadline passed the pool's pre-solve check (poll 1) and expired
	// inside the solve, well before its last poll.
	if n := dl.polls.Load(); n <= dl.after || dl.after < 2 {
		t.Fatalf("deadline never fired mid-solve: %d polls, expiry after %d", n, dl.after)
	}
	for i := 1; i < len(got); i++ {
		if errs[i] != nil {
			t.Fatalf("small instance %d failed alongside the cancellation: %v", i, errs[i])
		}
		if got[i] != ref[i] {
			t.Fatalf("small instance %d diverged after a concurrent cancellation:\n%v\nwant\n%v",
				i, got[i], ref[i])
		}
	}
}

func TestBoundedQueueRespectsContext(t *testing.T) {
	ins := testInstances(t, 3, 20)
	release := make(chan struct{})
	p := New(Options{Shards: 1, Queue: 1, Solve: func(ctx context.Context, in *core.Instance) (any, error) {
		<-release
		return "done", nil
	}})
	defer p.Close()
	defer close(release)

	// Occupy the shard, then fill the queue.
	if _, err := p.Submit(context.Background(), ins[0]); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
		_, err := p.Submit(ctx, ins[1])
		cancel()
		if errors.Is(err, context.DeadlineExceeded) {
			return // queue full and Submit honored the context
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	t.Fatal("queue never filled")
}

func TestSolverPanicIsAnError(t *testing.T) {
	ins := testInstances(t, 1, 20)
	p := New(Options{Shards: 1, Solve: func(ctx context.Context, in *core.Instance) (any, error) {
		panic("boom")
	}})
	defer p.Close()
	tk, err := p.Submit(context.Background(), ins[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tk.Wait(); err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("panic not surfaced: %v", err)
	}
}

// TestTrySubmitQueueFull pins the admission-control primitive: with the
// lone shard occupied and the one-slot queue full, TrySubmit must fail
// immediately with ErrQueueFull (never block), count the rejection, and
// succeed again once the queue drains.
func TestTrySubmitQueueFull(t *testing.T) {
	ins := testInstances(t, 4, 20)
	release := make(chan struct{})
	p := New(Options{Shards: 1, Queue: 1, Solve: func(ctx context.Context, in *core.Instance) (any, error) {
		<-release
		return in.Name, nil
	}})
	defer p.Close()

	// Occupy the shard, then the queue's single slot. The first submit may
	// be dequeued at any moment, so poll until the queue slot is provably
	// held.
	if _, err := p.Submit(context.Background(), ins[0]); err != nil {
		t.Fatal(err)
	}
	var queued *Ticket
	deadline := time.Now().Add(5 * time.Second)
	for queued == nil {
		if time.Now().After(deadline) {
			t.Fatal("queue never filled")
		}
		tk, err := p.TrySubmit(context.Background(), ins[1])
		if errors.Is(err, ErrQueueFull) {
			continue // the first instance was still queued; retry
		}
		if err != nil {
			t.Fatal(err)
		}
		queued = tk
	}
	// Shard busy on ins[0], queue holds ins[1]: rejection is now certain.
	done := make(chan error, 1)
	go func() {
		_, err := p.TrySubmit(context.Background(), ins[2])
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, ErrQueueFull) {
			t.Fatalf("TrySubmit on a full queue: %v, want ErrQueueFull", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("TrySubmit blocked on a full queue")
	}
	c := p.Counters()
	if c.Rejected < 1 {
		t.Fatalf("Rejected = %d, want >= 1", c.Rejected)
	}
	if c.QueueDepth != 1 || c.QueueCap != 1 {
		t.Fatalf("queue depth/cap = %d/%d, want 1/1", c.QueueDepth, c.QueueCap)
	}
	if c.InFlight != 1 {
		t.Fatalf("InFlight = %d, want 1", c.InFlight)
	}

	close(release)
	if _, err := queued.Wait(); err != nil {
		t.Fatal(err)
	}
	// Drained: TrySubmit admits again.
	tk, err := p.TrySubmit(context.Background(), ins[3])
	if err != nil {
		t.Fatalf("TrySubmit after drain: %v", err)
	}
	if _, err := tk.Wait(); err != nil {
		t.Fatal(err)
	}
}

func TestTrySubmitAfterClose(t *testing.T) {
	ins := testInstances(t, 1, 20)
	p := New(Options{Shards: 1, Solve: improveSolver})
	p.Close()
	if _, err := p.TrySubmit(context.Background(), ins[0]); !errors.Is(err, ErrClosed) {
		t.Fatalf("TrySubmit after Close: %v", err)
	}
}

// TestCountersLifecycle checks the cumulative counters across a small
// batch: submissions reconcile with completions and failures, shards accrue
// busy time, and the σ cache reports one miss plus hits for the instances
// sharing the table.
func TestCountersLifecycle(t *testing.T) {
	const n = 6
	ins := testInstances(t, n, 20)
	// One shared σ table across all instances so the cache traffic is
	// deterministic: 1 compile, n-1 hits.
	shared := score.NewTable()
	shared.Set(1, 1, 2.0)
	for _, in := range ins {
		in.Sigma = shared
	}
	p := New(Options{Shards: 2, Solve: func(ctx context.Context, in *core.Instance) (any, error) {
		time.Sleep(time.Millisecond)
		if in.Name == "w0" {
			return nil, fmt.Errorf("synthetic failure")
		}
		return in.Name, nil
	}})
	defer p.Close()
	_, errs, err := p.SolveAll(context.Background(), ins)
	if err != nil {
		t.Fatal(err)
	}
	if errs[0] == nil {
		t.Fatal("synthetic failure not reported")
	}
	c := p.Counters()
	if c.Submitted != n {
		t.Fatalf("Submitted = %d, want %d", c.Submitted, n)
	}
	if c.Completed != n-1 || c.Failed != 1 {
		t.Fatalf("Completed/Failed = %d/%d, want %d/1", c.Completed, c.Failed, n-1)
	}
	if c.QueueDepth != 0 || c.InFlight != 0 {
		t.Fatalf("quiescent pool reports depth=%d inflight=%d", c.QueueDepth, c.InFlight)
	}
	if c.SigmaMisses != 1 || c.SigmaHits != n-1 {
		t.Fatalf("σ cache hits/misses = %d/%d, want %d/1", c.SigmaHits, c.SigmaMisses, n-1)
	}
	if len(c.ShardBusy) != 2 {
		t.Fatalf("ShardBusy has %d entries, want 2", len(c.ShardBusy))
	}
	var busy time.Duration
	for _, d := range c.ShardBusy {
		busy += d
	}
	if busy < n*time.Millisecond {
		t.Fatalf("cumulative busy time %v, want >= %v", busy, n*time.Millisecond)
	}
}

// TestTrySubmitIndexOrder checks that TrySubmit participates in the same
// dense queue-ordered index sequence as Submit.
func TestTrySubmitIndexOrder(t *testing.T) {
	ins := testInstances(t, 8, 10)
	p := New(Options{Shards: 1, Queue: 16, Solve: func(ctx context.Context, in *core.Instance) (any, error) {
		return in.Name, nil
	}})
	defer p.Close()
	var tickets []*Ticket
	for i, in := range ins {
		var tk *Ticket
		var err error
		if i%2 == 0 {
			tk, err = p.Submit(context.Background(), in)
		} else {
			tk, err = p.TrySubmit(context.Background(), in)
		}
		if err != nil {
			t.Fatal(err)
		}
		tickets = append(tickets, tk)
	}
	for i, tk := range tickets {
		if tk.Index != i {
			t.Fatalf("ticket %d has index %d", i, tk.Index)
		}
		if _, err := tk.Wait(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestIndexMatchesQueueOrder pins the Ticket.Index contract under
// concurrent submitters: indices are dense and agree with the order a
// lone shard actually dequeues the work.
func TestIndexMatchesQueueOrder(t *testing.T) {
	const n = 64
	var mu sync.Mutex
	var processed []string
	p := New(Options{Shards: 1, Queue: 2, Solve: func(ctx context.Context, in *core.Instance) (any, error) {
		mu.Lock()
		processed = append(processed, in.Name)
		mu.Unlock()
		return in.Name, nil
	}})
	defer p.Close()

	ins := testInstances(t, n, 10)
	type tagged struct {
		idx  int
		name string
	}
	out := make(chan tagged, n)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < n; i += 8 {
				tk, err := p.Submit(context.Background(), ins[i])
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := tk.Wait(); err != nil {
					t.Error(err)
					return
				}
				out <- tagged{idx: tk.Index, name: ins[i].Name}
			}
		}(g)
	}
	wg.Wait()
	close(out)

	byIndex := make([]string, n)
	seen := 0
	for tg := range out {
		if tg.idx < 0 || tg.idx >= n || byIndex[tg.idx] != "" {
			t.Fatalf("index %d out of range or duplicated", tg.idx)
		}
		byIndex[tg.idx] = tg.name
		seen++
	}
	if seen != n {
		t.Fatalf("got %d tickets, want %d", seen, n)
	}
	mu.Lock()
	defer mu.Unlock()
	for i := range byIndex {
		if processed[i] != byIndex[i] {
			t.Fatalf("queue position %d processed %q but Index %d belongs to %q",
				i, processed[i], i, byIndex[i])
		}
	}
}
