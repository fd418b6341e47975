// Package faultinject is a deterministic fault-injection registry for
// resilience testing: tests and drills arm named
// faults (a stalled scheduler worker, a slow or panicking execution
// plan, a failing swap warm, a poisoned canary) and the production
// code paths in pisa and serve probe them at well-defined points.
//
// The registry is process-global and concurrency safe. When nothing is
// armed every probe is a single atomic load returning the zero value,
// so shipping the probes in the hot path costs nothing in normal
// operation. Faults are armed with an optional shot budget: a fault
// armed for N shots disarms itself after firing N times (N ≤ 0 means
// unlimited), which is what makes injected failures deterministic —
// "stall worker 0 exactly once" is a one-shot arm, not a race between
// the test and the pool.
package faultinject

import (
	"sync"
	"sync/atomic"
	"time"
)

// Fault points probed by pisa and serve.
const (
	// WorkerStall delays a scheduler worker at the top of task
	// execution (keyed by worker id) — the stalled-worker scenario the
	// scheduler watchdog must detect and route around.
	WorkerStall = "pisa.worker.stall"
	// SlowSession adds latency to every task of a named engine session
	// — a pathologically slow compiled plan, the sustained-overload
	// driver.
	SlowSession = "pisa.session.slow"
	// PanicSession panics task execution of a named engine session —
	// exercises worker panic isolation (the task fails, the session is
	// poisoned, the pool survives).
	PanicSession = "pisa.session.panic"
	// SwapWarmFail fails serve's swap warm phase for a named model
	// before any cutover state changes.
	SwapWarmFail = "serve.swap.warmfail"
	// PoisonCanary corrupts the canary version's observed classes for
	// a named model, forcing the accuracy-delta rollback path.
	PoisonCanary = "serve.canary.poison"
)

// fault is one armed fault instance.
type fault struct {
	key   string // worker id (decimal) or session/model name; "" matches any
	delay time.Duration
	shots int64 // remaining shots; < 0 means unlimited
}

var (
	mu     sync.Mutex
	armed  = map[string][]*fault{} // point -> armed faults
	active atomic.Int32            // armed fault count: the fast-path gate
)

// Arm registers a fault at a point. key selects the target (a worker
// id rendered in decimal for WorkerStall, a session/model name
// elsewhere; "" matches every target), delay is the injected latency
// for delay-type points, and shots bounds how many times the fault
// fires before disarming itself (≤ 0 = unlimited, until Reset).
func Arm(point, key string, delay time.Duration, shots int) {
	mu.Lock()
	defer mu.Unlock()
	n := int64(shots)
	if shots <= 0 {
		n = -1
	}
	armed[point] = append(armed[point], &fault{key: key, delay: delay, shots: n})
	active.Add(1)
}

// Disarm removes every fault armed at a point.
func Disarm(point string) {
	mu.Lock()
	defer mu.Unlock()
	active.Add(-int32(len(armed[point])))
	delete(armed, point)
}

// Reset disarms everything — call it (deferred) in every test that
// arms faults.
func Reset() {
	mu.Lock()
	defer mu.Unlock()
	for _, fs := range armed {
		active.Add(-int32(len(fs)))
	}
	armed = map[string][]*fault{}
}

// Enabled reports whether any fault is armed. Probes check it first so
// the disarmed fast path is one atomic load.
func Enabled() bool { return active.Load() != 0 }

// fire consumes one shot of the first matching fault at a point and
// returns its delay. ok is false when nothing matched.
func fire(point, key string) (d time.Duration, ok bool) {
	if !Enabled() {
		return 0, false
	}
	mu.Lock()
	defer mu.Unlock()
	fs := armed[point]
	for i, f := range fs {
		if f.key != "" && f.key != key {
			continue
		}
		d = f.delay
		if f.shots > 0 {
			f.shots--
			if f.shots == 0 {
				armed[point] = append(fs[:i], fs[i+1:]...)
				active.Add(-1)
			}
		}
		return d, true
	}
	return 0, false
}

// Peek reports whether a fault is armed at a point for key without
// consuming a shot.
func Peek(point, key string) bool {
	if !Enabled() {
		return false
	}
	mu.Lock()
	defer mu.Unlock()
	for _, f := range armed[point] {
		if f.key == "" || f.key == key {
			return true
		}
	}
	return false
}

// Delay consumes one shot at a delay-type point and returns the
// injected latency (0 when nothing is armed for key). Probe form used
// by pisa's worker loop (WorkerStall, SlowSession).
func Delay(point, key string) time.Duration {
	d, _ := fire(point, key)
	return d
}

// Should consumes one shot at a trigger-type point and reports whether
// the fault fired (PanicSession, SwapWarmFail, PoisonCanary).
func Should(point, key string) bool {
	_, ok := fire(point, key)
	return ok
}
