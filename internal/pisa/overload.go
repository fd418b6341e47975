package pisa

import (
	"context"
	"fmt"
	"time"
)

// ShedPolicy bounds a session's queueing before the engine sheds new
// work instead of letting it pile up — the overload-protection knob of
// the serving plane. The zero value never sheds (the historical
// block-until-served behaviour).
//
// Load shedding is REJECT-NEWEST: an over-bound submission is refused
// up front with *ErrOverloaded (carrying the observed depth and recent
// wait so the caller can back off), while work already admitted keeps
// its place in the queue. Bounding the queue is what keeps the queue
// wait of ADMITTED work bounded under sustained overload: with at most
// MaxQueue sessions ahead at a worker, an admitted task waits at most
// about MaxQueue+1 service times instead of growing without limit.
type ShedPolicy struct {
	// MaxQueue sheds a submission that would find at least this many
	// other sessions already queued at one of its target workers
	// (0 = unbounded).
	MaxQueue int
	// MaxWait sheds while the session's recent mean queue wait exceeds
	// this bound (0 = unbounded).
	MaxWait time.Duration
}

// ErrOverloaded is a shed submission: the session's shed policy (or a
// context deadline the recent queue wait cannot meet) rejected the
// batch before it entered the scheduler. Callers back off, reroute or
// drop — the structured depth/wait fields are the congestion signal.
type ErrOverloaded struct {
	// Session is the engine session's registration label.
	Session string
	// Reason names the violated bound: "queue", "wait" or "deadline".
	Reason string
	// Depth is the maximum number of other sessions queued ahead at
	// the session's target workers when the submission was refused.
	Depth int
	// Wait is the session's recent mean queue wait (an EWMA over
	// served tasks) — the delay a newly admitted task should expect.
	Wait time.Duration
	// Packets is the size of the shed submission.
	Packets int
}

func (e *ErrOverloaded) Error() string {
	return fmt.Sprintf("pisa: session %q overloaded (%s bound): %d packets shed at queue depth %d, recent wait %v",
		e.Session, e.Reason, e.Packets, e.Depth, e.Wait)
}

// ErrPoisoned marks a session whose compiled plan panicked during task
// execution. The panic was recovered on the worker — the pool and
// every co-resident session keep serving — but this session's results
// can no longer be trusted: the failed task's results are zero-valued
// and the flow state may be partially updated. The owner should retire
// the session (serve swaps or unregisters it).
type ErrPoisoned struct {
	Session string
	Cause   any // the recovered panic value
}

func (e *ErrPoisoned) Error() string {
	return fmt.Sprintf("pisa: session %q poisoned by plan panic: %v", e.Session, e.Cause)
}

// SetShedPolicy installs (or, with the zero value, removes) the
// session's overload bounds. Takes effect on the next submission;
// safe to call concurrently with serving.
func (e *Engine) SetShedPolicy(p ShedPolicy) {
	e.shedMaxQueue.Store(int32(p.MaxQueue))
	e.shedMaxWait.Store(int64(p.MaxWait))
}

// GetShedPolicy returns the session's current overload bounds.
func (e *Engine) GetShedPolicy() ShedPolicy {
	return ShedPolicy{
		MaxQueue: int(e.shedMaxQueue.Load()),
		MaxWait:  time.Duration(e.shedMaxWait.Load()),
	}
}

// RecentWait returns the session's exponentially-weighted recent mean
// queue wait — the wait a new submission should expect, used by the
// deadline admission check and exported for caller-side backoff.
func (e *Engine) RecentWait() time.Duration {
	return time.Duration(e.stWaitEWMA.Load())
}

// Poisoned returns the session's poison error when a plan panic has
// been isolated to it, nil while the session is healthy.
func (e *Engine) Poisoned() error {
	if p := e.poisoned.Load(); p != nil {
		return &ErrPoisoned{Session: e.name, Cause: p.cause}
	}
	return nil
}

// poisonInfo records the first recovered plan panic of a session.
type poisonInfo struct{ cause any }

// poison marks the session failed with the first recovered panic value
// (later panics keep the original cause).
func (e *Engine) poison(cause any) {
	e.poisoned.CompareAndSwap(nil, &poisonInfo{cause: cause})
}

// admit is the admission control in front of both context-taking
// submissions: a poisoned session, a cancelled context, or a violation
// of the session's shed policy (or of the context deadline, if any)
// rejects a submission of n packets up front; nil admits. ctx may be
// nil. Shed packets are accounted in the session's Shed counters.
func (e *Engine) admit(ctx context.Context, n int) error {
	if err := e.Poisoned(); err != nil {
		return err
	}
	var deadline time.Time
	hasDL := false
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return err
		}
		deadline, hasDL = ctx.Deadline()
	}
	maxQ := int(e.shedMaxQueue.Load())
	maxW := time.Duration(e.shedMaxWait.Load())
	if maxQ <= 0 && maxW <= 0 && !hasDL {
		return nil
	}
	depth := e.sched.queueDepth(e)
	wait := e.RecentWait()
	reason := ""
	switch {
	case maxQ > 0 && depth >= maxQ:
		reason = "queue"
	case maxW > 0 && wait > maxW:
		reason = "wait"
	case hasDL && time.Until(deadline) < wait:
		reason = "deadline"
	}
	if reason == "" {
		return nil
	}
	e.noteShed(n)
	return &ErrOverloaded{Session: e.name, Reason: reason, Depth: depth, Wait: wait, Packets: n}
}

// SubmitBatchCtx is SubmitBatch behind admission control (see admit),
// the context-taking submission of window jobs: a rejected batch is
// refused up front (reject-newest) instead of queueing. A nil error
// means the batch was admitted and behaves exactly like SubmitBatch.
func (e *Engine) SubmitBatchCtx(ctx context.Context, jobs []Job) (*Pending, error) {
	if err := e.admit(ctx, len(jobs)); err != nil {
		return nil, err
	}
	return e.SubmitBatch(jobs), nil
}

// RunPacketsCtx is RunPackets behind the same admission control, the
// context-taking submission of raw packets: a rejected batch is shed
// whole — its packets never touch the flow-state registers and fire
// nothing, the dataplane analogue of dropping on an overflowing ingress
// queue. After an admitted run the error reports a poisoned session.
func (e *Engine) RunPacketsCtx(ctx context.Context, pkts []PacketIn) ([]PacketResult, error) {
	if err := e.admit(ctx, len(pkts)); err != nil {
		return nil, err
	}
	res := e.RunPackets(pkts)
	return res, e.Poisoned()
}

// DrainTimeout is Drain with a bound: it waits up to d for the
// outstanding batch to finish and reports whether the engine is
// quiescent. d ≤ 0 waits forever (plain Drain). On timeout the batch
// is still in flight — a stalled or stuck worker holds it — and the
// caller must not reuse the engine's buffers; the serving layer
// reports the session in a structured drain error instead of hanging.
func (e *Engine) DrainTimeout(d time.Duration) bool {
	if d <= 0 {
		e.waitBatch()
		return true
	}
	done := make(chan struct{})
	go func() {
		// The helper goroutine outlives a timeout by design: it parks
		// on the batch's done channel until the stuck batch eventually
		// completes (or forever, if it never does) without holding any
		// lock.
		e.waitBatch()
		close(done)
	}()
	select {
	case <-done:
		return true
	case <-time.After(d):
		return false
	}
}
