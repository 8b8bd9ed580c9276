package service

import (
	"sort"
	"time"
)

// breakerState tracks one matrix key through the classic three states:
// closed (counting consecutive failures), open (rejecting until the
// cooldown expires), half-open (one probe request admitted; its outcome
// closes or re-opens the circuit).
type breakerState struct {
	failures  int
	openUntil time.Time
	probing   bool
}

// breaker is the per-matrix-key circuit breaker: a key whose solves keep
// failing (factorization panics, breakdowns the ladder could not recover,
// watchdog deadlocks) stops consuming worker time until a cooldown
// passes. Cancellations and load shedding never count as failures — they
// say nothing about the matrix. All methods require the server lock.
type breaker struct {
	threshold int // consecutive failures that open the circuit
	cooldown  time.Duration
	now       func() time.Time // injectable for tests
	keys      map[string]*breakerState
}

// A breaker opens after breakerFailures consecutive failures and stays
// open for breakerCooldown before it admits one probe.
const (
	breakerFailures = 3
	breakerCooldown = 30 * time.Second
)

func newBreaker() *breaker {
	return &breaker{
		threshold: breakerFailures,
		cooldown:  breakerCooldown,
		now:       time.Now,
		keys:      make(map[string]*breakerState),
	}
}

// allow reports whether a request for key may proceed; when it may not,
// retryAfter is the time left until the next probe is admitted.
func (b *breaker) allow(key string) (retryAfter time.Duration, ok bool) {
	st := b.keys[key]
	if st == nil || st.failures < b.threshold {
		return 0, true
	}
	if left := st.openUntil.Sub(b.now()); left > 0 {
		return left, false
	}
	// Cooldown expired: admit exactly one probe; others keep bouncing
	// until the probe's outcome is known.
	if st.probing {
		return b.cooldown, false
	}
	st.probing = true
	return 0, true
}

// success closes the circuit for key.
func (b *breaker) success(key string) {
	delete(b.keys, key)
}

// cancel reverts a half-open probe whose request was canceled before it
// produced a verdict about the matrix, so the next request can probe.
func (b *breaker) cancel(key string) {
	if st := b.keys[key]; st != nil {
		st.probing = false
	}
}

// failure counts a solve failure; reaching the threshold (or failing a
// half-open probe) opens the circuit for a full cooldown.
func (b *breaker) failure(key string) {
	st := b.keys[key]
	if st == nil {
		st = &breakerState{}
		b.keys[key] = st
	}
	st.failures++
	st.probing = false
	if st.failures >= b.threshold {
		st.openUntil = b.now().Add(b.cooldown)
	}
}

// openKeys lists the keys whose circuit is currently open, sorted for
// deterministic health reports.
func (b *breaker) openKeys() []string {
	var out []string
	for key, st := range b.keys {
		if st.failures >= b.threshold {
			out = append(out, key)
		}
	}
	sort.Strings(out)
	return out
}
