package remote

import (
	"sync"
	"time"
)

// breakerState is the circuit breaker's position.
type breakerState int

const (
	breakerClosed   breakerState = iota // normal operation
	breakerOpen                         // tripping: requests rejected until cooldown
	breakerHalfOpen                     // cooldown elapsed: exactly one probe in flight
)

// breaker is a per-endpoint circuit breaker. The transport consults it
// before every HTTP attempt: after Threshold consecutive transport
// failures it opens (attempts are rejected locally, sparing a sick server
// a retry storm and the sweep a long chain of per-request timeouts), and
// after Cooldown it half-opens, letting exactly one probe attempt
// through. A successful probe closes it; a failed probe re-opens it for
// another cooldown.
//
// Only transport-level outcomes feed the breaker. Per-request errors
// inside a successful HTTP exchange (say, one unknown problem number in a
// batch) are application results, not endpoint health signals.
type breaker struct {
	threshold int
	cooldown  time.Duration

	mu       sync.Mutex
	state    breakerState
	consec   int       // consecutive failures while closed
	openedAt time.Time // when the breaker last tripped
}

func newBreaker(threshold int, cooldown time.Duration) *breaker {
	return &breaker{threshold: threshold, cooldown: cooldown}
}

// Allow reports whether an attempt may proceed. In the open state it
// checks the cooldown clock; once elapsed the breaker half-opens and the
// calling attempt becomes the probe (subsequent callers are rejected
// until the probe reports back via Success or Failure).
func (b *breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed:
		return true
	case breakerHalfOpen:
		return false // a probe is already in flight
	default: // breakerOpen
		if time.Since(b.openedAt) < b.cooldown {
			return false
		}
		b.state = breakerHalfOpen
		return true
	}
}

// Success records a successful transport exchange: the endpoint is
// healthy, so any state collapses back to closed.
func (b *breaker) Success() {
	b.mu.Lock()
	b.state = breakerClosed
	b.consec = 0
	b.mu.Unlock()
}

// Failure records a failed transport exchange. A closed breaker trips
// after threshold consecutive failures; a failed half-open probe re-opens
// immediately for a fresh cooldown.
func (b *breaker) Failure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerHalfOpen:
		b.state = breakerOpen
		b.openedAt = time.Now()
	case breakerClosed:
		b.consec++
		if b.consec >= b.threshold {
			b.state = breakerOpen
			b.openedAt = time.Now()
		}
	}
}
