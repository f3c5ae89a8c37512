// Package limit provides the per-query resource limits of the efficiency
// testbed: a cheap cooperative deadline that evaluators and physical
// operators poll while producing tuples (the paper's "2 or 30 minutes per
// query", after which an engine is stopped and assigned the cap).
package limit

import (
	"errors"
	"sync/atomic"
	"time"
)

// ErrTimeout is returned when a query exceeds its deadline.
var ErrTimeout = errors.New("query deadline exceeded")

// ErrCanceled is returned when a query's budget has been canceled.
var ErrCanceled = errors.New("query canceled")

// checkMask controls how often Check consults the clock: every 1024 calls.
const checkMask = 1023

// Deadline is a cooperative query deadline. The zero value and the nil
// pointer never expire, so code can call Check unconditionally. A Deadline
// belongs to one query and is polled only by the goroutine running it.
type Deadline struct {
	at    time.Time
	count int64
}

// After returns a Deadline expiring d from now. A non-positive d returns
// nil (no limit).
func After(d time.Duration) *Deadline {
	if d <= 0 {
		return nil
	}
	return &Deadline{at: time.Now().Add(d)}
}

// Check returns ErrTimeout once the deadline has passed. It samples the
// clock only every few hundred calls, so it is cheap enough to call per
// tuple.
func (d *Deadline) Check() error {
	if d == nil || d.at.IsZero() {
		return nil
	}
	d.count++
	if d.count&checkMask != 0 {
		return nil
	}
	if time.Now().After(d.at) {
		return ErrTimeout
	}
	return nil
}

// CheckN is Check for batched operators: it advances the poll counter by n
// rows at once, sampling the clock whenever the counter crosses a sampling
// boundary. A batch of n rows therefore triggers exactly as many clock
// samples as n row-at-a-time Check calls would, so moving polling to once
// per batch does not make deadlines any less responsive in row terms.
func (d *Deadline) CheckN(n int) error {
	if d == nil || d.at.IsZero() || n <= 0 {
		return nil
	}
	before := d.count
	d.count += int64(n)
	if before&^checkMask == d.count&^checkMask {
		return nil
	}
	if time.Now().After(d.at) {
		return ErrTimeout
	}
	return nil
}

// Expired reports whether the deadline has passed, checking the clock
// immediately.
func (d *Deadline) Expired() bool {
	if d == nil || d.at.IsZero() {
		return false
	}
	return time.Now().After(d.at)
}

// Budget is the per-query resource governor: a memory quota that buffering
// operators draw reservations from, a deadline, and a cancellation flag.
// The nil pointer grants everything, so code can call every method
// unconditionally.
//
// Reserve/Release track bytes held in memory by operators; when Reserve
// reports false the caller is over quota and should spill to disk instead
// of growing (the reservation is NOT taken in that case). Cancel flips a
// flag that Check surfaces as ErrCanceled at the next poll, so an
// in-flight query unwinds through the normal error path — closing
// iterators, removing temp files, and releasing pins on the way out.
//
// Only Cancel and Canceled may be called from another goroutine; everything
// else belongs to the goroutine running the query.
type Budget struct {
	deadline *Deadline
	quota    int64
	used     int64
	canceled atomic.Bool
}

// NewBudget returns a Budget with the given memory quota in bytes (<= 0
// means unlimited) and deadline (nil means none).
func NewBudget(mem int, d *Deadline) *Budget {
	b := &Budget{deadline: d}
	if mem > 0 {
		b.quota = int64(mem)
	}
	return b
}

// Check returns ErrCanceled after Cancel, or the deadline's error.
func (b *Budget) Check() error {
	if b == nil {
		return nil
	}
	if b.canceled.Load() {
		return ErrCanceled
	}
	return b.deadline.Check()
}

// CheckN is Check advanced by n rows at once (see Deadline.CheckN).
// Cancellation is still observed on every call, so a canceled query
// unwinds at the next batch boundary at the latest.
func (b *Budget) CheckN(n int) error {
	if b == nil {
		return nil
	}
	if b.canceled.Load() {
		return ErrCanceled
	}
	return b.deadline.CheckN(n)
}

// Cancel makes all future Check calls return ErrCanceled. Safe to call
// from another goroutine while the query runs.
func (b *Budget) Cancel() {
	if b != nil {
		b.canceled.Store(true)
	}
}

// Canceled reports whether Cancel has been called.
func (b *Budget) Canceled() bool { return b != nil && b.canceled.Load() }

// Reserve tries to take n bytes of the memory quota. It returns false —
// without taking anything — when the reservation would exceed the quota;
// the caller should spill. With no quota it still accounts the bytes (so
// InUse stays meaningful) and always succeeds.
func (b *Budget) Reserve(n int) bool {
	if b == nil || n <= 0 {
		return true
	}
	if b.quota > 0 && b.used+int64(n) > b.quota {
		return false
	}
	b.used += int64(n)
	return true
}

// Release returns n bytes previously taken with Reserve.
func (b *Budget) Release(n int) {
	if b == nil || n <= 0 {
		return
	}
	// Never let sloppy accounting free quota that was never reserved.
	b.used = max(b.used-int64(n), 0)
}

// InUse returns the bytes currently reserved.
func (b *Budget) InUse() int64 {
	if b == nil {
		return 0
	}
	return b.used
}

// Quota returns the memory quota in bytes (0 = unlimited).
func (b *Budget) Quota() int64 {
	if b == nil {
		return 0
	}
	return b.quota
}

// Deadline returns the budget's deadline (nil when absent).
func (b *Budget) Deadline() *Deadline {
	if b == nil {
		return nil
	}
	return b.deadline
}
