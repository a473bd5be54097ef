package serve

// Per-tenant fair admission. The pool's bounded queue is a single global
// FIFO; left alone, one tenant's burst fills it and every other tenant eats
// 429s — admission-by-arrival-order, the opposite of fair. This layer moves
// the admission decision up to the tenant level with weighted max-min
// sharing over the *active* tenant set:
//
//	share(t) = max(1, capacity · w_t / Σ_{active u} w_u)   (capped by the
//	                                                        per-tenant limit)
//
// where a tenant is active while it has in-flight instances. A request
// whose tenant is below its share is admitted on the *guaranteed* path —
// blocking submission, so it waits (briefly) for a queue slot instead of
// losing a race against a saturating tenant's refill; a tenant at or above
// its share may still use whatever slack the queue has (non-blocking
// submission, first come first served), and is otherwise refused 429 with a
// Retry-After keyed to that tenant's own drain estimate. A solo tenant's
// share is the whole capacity, so single-tenant servers keep today's
// shed-when-saturated behavior exactly.
//
// The guaranteed path means admission no longer refuses a below-share
// tenant just because the queue is momentarily full — fairness with an
// instantaneous-occupancy check alone is impossible, since a saturating
// tenant refills the queue the moment a slot frees. The cost is a bounded
// wait: at most one queue drain, which keeps the light tenant's latency
// within a constant factor of its solo latency (the fairness acceptance
// bound). A hard global cap bounds the aggregate guaranteed overshoot no
// matter how many tenants go active at once: guaranteed admission stops
// while the active tenants' in-share load Σ min(in-flight, share) is at
// 2·capacity. Only in-share reservations count. A tenant's instances past
// its share (the rest of its admitted streams, each waiting on the blocking
// queue) are its own backlog, bounded by that backpressure, and never
// count against another tenant's guarantee.
//
// Accounting is reservation-based: admit/reserve bump the tenant's
// in-flight count before submission so concurrent deciders see each other,
// and every reservation is paired with exactly one finishInstance (after
// the ticket resolves) or unadmit (submission failed).

// admitDecision is the fate of a request's first instance.
type admitDecision int

const (
	// admitGuaranteed: below fair share — submit blocking; the tenant is
	// entitled to the slot even if the queue is momentarily full.
	admitGuaranteed admitDecision = iota
	// admitSlack: at/over fair share but the system has headroom — submit
	// non-blocking, reject the request if the queue is actually full.
	admitSlack
	// admitReject: over share and no headroom (or over the per-tenant
	// cap) — refuse 429 with the tenant's own Retry-After estimate.
	admitReject
)

// admitFirst decides admission for a request's first instance and, when
// admitting, reserves the in-flight slot. capacity is the fair-share
// denominator (the pool queue bound); maxInflight caps any one tenant
// (0 = uncapped). The second result is the tenant's queue excess, sizing
// the Retry-After hint on rejection.
func (tc *tenantCache) admitFirst(e *tenantEntry, capacity, maxInflight int) (admitDecision, int) {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	share, inShare := tc.shareLocked(e, capacity, maxInflight)
	excess := e.inflight - share + 1
	if excess < 1 {
		excess = 1
	}
	switch {
	case maxInflight > 0 && e.inflight >= maxInflight:
		e.rejected++
		return admitReject, excess
	case e.inflight < share && inShare < 2*capacity:
		e.inflight++
		tc.total++
		e.admitted++
		return admitGuaranteed, 0
	case tc.total < capacity:
		e.inflight++
		tc.total++
		e.admitted++
		return admitSlack, 0
	default:
		e.rejected++
		return admitReject, excess
	}
}

// shareLocked computes e's current weighted max-min share of capacity over
// the active tenant set (tenants with in-flight instances, plus e itself —
// the requester counts as active for its own decision), and the active
// set's in-share load: Σ min(in-flight, share) over its tenants.
func (tc *tenantCache) shareLocked(e *tenantEntry, capacity, maxInflight int) (share, inShare int) {
	var sum float64
	tc.eachActive(e, func(o *tenantEntry) { sum += o.weight })
	if sum <= 0 {
		sum = e.weight
	}
	shareOf := func(o *tenantEntry) int {
		s := int(float64(capacity) * o.weight / sum)
		if s < 1 {
			s = 1
		}
		if maxInflight > 0 && s > maxInflight {
			s = maxInflight
		}
		return s
	}
	tc.eachActive(e, func(o *tenantEntry) { inShare += min(o.inflight, shareOf(o)) })
	return shareOf(e), inShare
}

// eachActive calls fn on every active tenant: those with in-flight
// instances, plus e.
func (tc *tenantCache) eachActive(e *tenantEntry, fn func(*tenantEntry)) {
	for _, o := range tc.m {
		if o.inflight > 0 || o == e {
			fn(o)
		}
	}
	for o := range tc.anon {
		if o.inflight > 0 || o == e {
			fn(o)
		}
	}
}

// reserve books one more in-flight instance for an already-admitted
// request's subsequent submissions (the admitted stream keeps ordinary
// blocking backpressure; fairness acts at request admission).
func (tc *tenantCache) reserve(e *tenantEntry) {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	e.inflight++
	tc.total++
	e.admitted++
}

// unadmit rolls back a reservation whose submission failed (slack-path
// queue-full, or a dead request context) and books the rejection.
func (tc *tenantCache) unadmit(e *tenantEntry) {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	e.inflight--
	tc.total--
	e.admitted--
	e.rejected++
}

// finishInstance retires a reservation once its ticket resolved.
func (tc *tenantCache) finishInstance(e *tenantEntry) {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	e.inflight--
	tc.total--
	if e.key == "" && e.refs <= 0 && e.inflight <= 0 {
		delete(tc.anon, e)
	}
}
