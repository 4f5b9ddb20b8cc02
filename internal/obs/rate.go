package obs

import (
	"math"
	"sync"
	"time"
)

// EWMARate is an exponentially weighted rate of events per second
// with a ~10 s time constant, decaying toward zero when idle. The zero
// value is ready, and it is safe for concurrent use.
type EWMARate struct {
	mu   sync.Mutex
	rate float64
	last time.Time
}

// Observe credits n events at now.
func (e *EWMARate) Observe(n int, now time.Time) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.last.IsZero() {
		e.last = now
		return
	}
	dt := now.Sub(e.last).Seconds()
	if dt <= 0 {
		return
	}
	e.rate += (1 - math.Exp(-dt/10)) * (float64(n)/dt - e.rate)
	e.last = now
}

// Value is the rate at now.
func (e *EWMARate) Value(now time.Time) float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.last.IsZero() {
		return 0
	}
	if dt := now.Sub(e.last).Seconds(); dt > 0 {
		return e.rate * math.Exp(-dt/10)
	}
	return e.rate
}
