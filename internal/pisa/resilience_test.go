package pisa

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"github.com/pegasus-idp/pegasus/internal/faultinject"
)

// TestShedPolicyBounds drives the reject-newest shed policy through its
// three bounds — queue depth, recent wait, and context deadline — on a
// one-worker pool wedged behind an injected slow plan, asserting the
// structured ErrOverloaded and the session's Shed counters.
func TestShedPolicyBounds(t *testing.T) {
	defer faultinject.Reset()
	s := NewScheduler(1)
	defer s.Close()
	progA, k, out, class := engineTestProg(t)
	a := s.NewChainEngine("slow", []*Program{progA}, nil, []FieldID{k}, []FieldID{out}, class, 1, ExecCompiled)
	defer a.Close()
	progB, k2, out2, class2 := engineTestProg(t)
	b := s.NewChainEngine("victim", []*Program{progB}, nil, []FieldID{k2}, []FieldID{out2}, class2, 1, ExecCompiled)
	defer b.Close()
	progC, k3, out3, class3 := engineTestProg(t)
	c := s.NewChainEngine("shedder", []*Program{progC}, nil, []FieldID{k3}, []FieldID{out3}, class3, 1, ExecCompiled)
	defer c.Close()

	// Wedge the only worker on session "slow" for 50ms and queue a
	// second session behind it.
	faultinject.Arm(faultinject.SlowSession, "slow", 50*time.Millisecond, 1)
	jobs := []Job{{Hash: 1, In: []int32{7}}}
	pa := a.SubmitBatch(jobs)
	time.Sleep(2 * time.Millisecond) // let the worker dequeue the slow task
	pb := b.SubmitBatch(jobs)

	// Queue bound: "shedder" would find "victim" (at least) already
	// queued at the worker.
	c.SetShedPolicy(ShedPolicy{MaxQueue: 1})
	_, err := c.SubmitBatchCtx(context.Background(), jobs)
	var ov *ErrOverloaded
	if !errors.As(err, &ov) {
		t.Fatalf("queue-bound submission returned %v, want ErrOverloaded", err)
	}
	if ov.Reason != "queue" || ov.Session != "shedder" || ov.Packets != 1 || ov.Depth < 1 {
		t.Fatalf("queue shed fields: %+v", ov)
	}
	if st := c.Stats(); st.Shed != 1 || st.ShedBatches != 1 {
		t.Fatalf("shed counters after queue shed: Shed=%d ShedBatches=%d", st.Shed, st.ShedBatches)
	}

	pa.Wait()
	pb.Wait()

	// "victim" sat ~50ms behind the wedged worker, so its recent-wait
	// EWMA is several milliseconds now.
	if w := b.RecentWait(); w < time.Millisecond {
		t.Fatalf("victim recent wait %v, want >= 1ms after queueing behind the stall", w)
	}

	// Wait bound.
	b.SetShedPolicy(ShedPolicy{MaxWait: 100 * time.Microsecond})
	_, err = b.SubmitBatchCtx(context.Background(), jobs)
	if !errors.As(err, &ov) || ov.Reason != "wait" {
		t.Fatalf("wait-bound submission returned %v, want ErrOverloaded(wait)", err)
	}

	// Deadline bound: a deadline tighter than the expected wait is shed
	// up front even with no explicit policy.
	b.SetShedPolicy(ShedPolicy{})
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Millisecond)
	defer cancel()
	_, err = b.SubmitBatchCtx(ctx, jobs)
	if !errors.As(err, &ov) || ov.Reason != "deadline" {
		t.Fatalf("deadline submission returned %v, want ErrOverloaded(deadline)", err)
	}
	if st := b.Stats(); st.Shed != 2 {
		t.Fatalf("victim shed counter = %d, want 2", st.Shed)
	}

	// The policy is removable: zero value admits again.
	p, err := b.SubmitBatchCtx(context.Background(), jobs)
	if err != nil || len(p.Wait()) != 1 {
		t.Fatalf("post-shed admission failed: %v", err)
	}
}

// TestPanicIsolation pins worker panic isolation: an injected plan
// panic poisons ONLY its session — the pool and the co-resident session
// keep serving, and the poisoned session reports a structured
// ErrPoisoned on every later submission.
func TestPanicIsolation(t *testing.T) {
	defer faultinject.Reset()
	s := NewScheduler(2)
	defer s.Close()
	progA, k, out, class := engineTestProg(t)
	a := s.NewChainEngine("doomed", []*Program{progA}, nil, []FieldID{k}, []FieldID{out}, class, 1, ExecCompiled)
	defer a.Close()
	progB, k2, out2, class2 := engineTestProg(t)
	b := s.NewChainEngine("healthy", []*Program{progB}, nil, []FieldID{k2}, []FieldID{out2}, class2, 1, ExecCompiled)
	defer b.Close()

	jobs := make([]Job, 64)
	for i := range jobs {
		jobs[i] = Job{Hash: uint32(i), In: []int32{int32(i % 256)}}
	}
	want := b.RunBatch(jobs)

	faultinject.Arm(faultinject.PanicSession, "doomed", 0, 1)
	p, err := a.SubmitBatchCtx(context.Background(), jobs)
	if err != nil {
		t.Fatalf("healthy session refused the batch that panics: %v", err)
	}
	p.Wait()
	var pe *ErrPoisoned
	if err := p.Err(); !errors.As(err, &pe) {
		t.Fatalf("panicking batch returned %v, want ErrPoisoned", err)
	}
	if pe.Session != "doomed" {
		t.Fatalf("poison names session %q", pe.Session)
	}
	if _, err := a.SubmitBatchCtx(context.Background(), jobs); !errors.As(err, &pe) {
		t.Fatalf("submission on poisoned session returned %v, want ErrPoisoned", err)
	}

	// The pool survived: the co-resident session still classifies
	// bit-identically.
	p, err = b.SubmitBatchCtx(context.Background(), jobs)
	if err != nil {
		t.Fatalf("healthy session errored after peer panic: %v", err)
	}
	got := p.Wait()
	for i := range got {
		if got[i].Class != want[i].Class || got[i].Outs[0] != want[i].Outs[0] {
			t.Fatalf("healthy session diverged at job %d after peer panic", i)
		}
	}
}

// TestWatchdogStallRecovery wedges one worker with an injected stall
// and asserts (a) the watchdog counts the stall episode and (b) another
// session's batch — part of whose work was queued AT the wedged worker
// — completes by stealing, well before the stall clears.
func TestWatchdogStallRecovery(t *testing.T) {
	defer faultinject.Reset()
	s := NewScheduler(2)
	defer s.Close()
	s.StartWatchdog(20 * time.Millisecond)

	progA, k, out, class := engineTestProg(t)
	a := s.NewChainEngine("wedge", []*Program{progA}, nil, []FieldID{k}, []FieldID{out}, class, 1, ExecCompiled)
	defer a.Close()
	progB, k2, out2, class2 := engineTestProg(t)
	b := s.NewChainEngine("bystander", []*Program{progB}, nil, []FieldID{k2}, []FieldID{out2}, class2, 1, ExecCompiled)
	defer b.Close()

	stall := 400 * time.Millisecond
	// One wildcard shot: whichever worker dequeues "wedge"'s task stalls
	// on it. (Keying a worker id here would race — the other worker can
	// win that task, leaving the shot armed to wedge the bystander's own
	// in-flight task, which no peer can steal.)
	faultinject.Arm(faultinject.WorkerStall, "", stall, 1)

	jobs := make([]Job, 128)
	for i := range jobs {
		jobs[i] = Job{Hash: uint32(i), In: []int32{int32(i % 256)}}
	}
	pa := a.SubmitBatch(jobs) // a worker dequeues the shard and stalls on it
	for deadline := time.Now().Add(time.Second); faultinject.Peek(faultinject.WorkerStall, "0") && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if faultinject.Peek(faultinject.WorkerStall, "0") {
		t.Fatal("stall shot was never consumed — no worker dequeued the wedge task")
	}

	startB := time.Now()
	b.RunBatch(jobs)
	tookB := time.Since(startB)
	if tookB > stall/2 {
		t.Fatalf("bystander batch took %v behind a %v stall — queue was not re-routed", tookB, stall)
	}

	// The watchdog flags the wedged worker within a few ticks.
	deadline := time.Now().Add(stall)
	for s.Stalls() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if s.Stalls() == 0 {
		t.Fatal("watchdog never detected the stalled worker")
	}
	pa.Wait()
}

// TestDrainTimeout pins the bounded drain: a session wedged mid-batch
// reports false at the timeout instead of hanging, and an unbounded
// drain (d <= 0) still waits the batch out.
func TestDrainTimeout(t *testing.T) {
	defer faultinject.Reset()
	s := NewScheduler(2)
	defer s.Close()
	prog, k, out, class := engineTestProg(t)
	e := s.NewChainEngine("drainer", []*Program{prog}, nil, []FieldID{k}, []FieldID{out}, class, 1, ExecCompiled)
	defer e.Close()

	if !e.DrainTimeout(time.Millisecond) {
		t.Fatal("idle engine failed a bounded drain")
	}

	faultinject.Arm(faultinject.SlowSession, "drainer", 60*time.Millisecond, 0)
	p := e.SubmitBatch([]Job{{Hash: 1, In: []int32{3}}})
	if e.DrainTimeout(5 * time.Millisecond) {
		t.Fatal("bounded drain reported quiescent while the batch was wedged")
	}
	if !e.DrainTimeout(0) {
		t.Fatal("unbounded drain returned false")
	}
	p.Wait()
}

// TestSubmitBatchCtxCancelled: an already-cancelled context rejects the
// submission with the context error, before any admission accounting.
func TestSubmitBatchCtxCancelled(t *testing.T) {
	s := NewScheduler(1)
	defer s.Close()
	prog, k, out, class := engineTestProg(t)
	e := s.NewChainEngine("ctx", []*Program{prog}, nil, []FieldID{k}, []FieldID{out}, class, 1, ExecCompiled)
	defer e.Close()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.SubmitBatchCtx(ctx, []Job{{Hash: 1, In: []int32{3}}}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled submission returned %v", err)
	}
	if st := e.Stats(); st.Shed != 0 {
		t.Fatalf("context cancellation counted as shed: %d", st.Shed)
	}
}

// TestRunPacketsCtxShedsWhole pins admission control on the packet
// kind: a batch shed by the wait or deadline bound, refused for a
// cancelled context or refused by a poisoned session never touches the
// flow-state registers and fires nothing, so the admitted batches alone
// fire exactly what a twin engine fires over the same trace.
func TestRunPacketsCtxShedsWhole(t *testing.T) {
	defer faultinject.Reset()
	prog, meta, outs := randStatefulProgram(t, rand.New(rand.NewSource(43)), 8)
	twinProg, twinMeta, twinOuts := randStatefulProgram(t, rand.New(rand.NewSource(43)), 8)
	twin := newPacketEngine(twinProg, twinMeta, twinOuts, twinOuts[0], 1, ExecCompiled)
	defer twin.Close()
	s := NewScheduler(1)
	defer s.Close()
	e := s.NewChainEngine("pkts", []*Program{prog}, nil, nil, outs, outs[0], 1, ExecCompiled)
	defer e.Close()
	e.ConfigurePackets(meta)
	pkts := randSlicedPackets(rand.New(rand.NewSource(44)), 400)

	admitted := func(tag string, ctx context.Context) {
		t.Helper()
		got, err := e.RunPacketsCtx(ctx, pkts)
		if err != nil {
			t.Fatalf("%s: admitted batch returned %v", tag, err)
		}
		sameRows(t, tag, got, twin.RunPackets(pkts))
	}
	refused := func(tag string, ctx context.Context, want func(error) bool) {
		t.Helper()
		regs, st := snapshotRegs(prog), e.Stats()
		res, err := e.RunPacketsCtx(ctx, pkts)
		if res != nil || !want(err) {
			t.Fatalf("%s: returned %d fires and %v", tag, len(res), err)
		}
		if now := e.Stats(); now.RegRMWs != st.RegRMWs || now.Fires != st.Fires || now.Tasks != st.Tasks {
			t.Fatalf("%s: refused batch ran: %+v, before %+v", tag, now, st)
		}
		for r, cells := range snapshotRegs(prog) {
			for c, v := range cells {
				if v != regs[r][c] {
					t.Fatalf("%s: register %d cell %d moved %d -> %d", tag, r, c, regs[r][c], v)
				}
			}
		}
	}
	overloaded := func(reason string) func(error) bool {
		return func(err error) bool {
			var ov *ErrOverloaded
			return errors.As(err, &ov) && ov.Reason == reason && ov.Packets == len(pkts)
		}
	}

	admitted("first", context.Background())
	// A recent wait far above the bounds below, as a backed-up queue
	// would leave it.
	e.stWaitEWMA.Store(int64(time.Hour))
	e.SetShedPolicy(ShedPolicy{MaxWait: time.Millisecond})
	refused("wait bound", context.Background(), overloaded("wait"))
	e.SetShedPolicy(ShedPolicy{})
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	refused("deadline", ctx, overloaded("deadline"))
	cancelled, cancel2 := context.WithCancel(context.Background())
	cancel2()
	refused("cancelled", cancelled, func(err error) bool { return errors.Is(err, context.Canceled) })
	if st := e.Stats(); st.Shed != uint64(2*len(pkts)) || st.ShedBatches != 2 {
		t.Fatalf("shed counters: %d packets in %d batches, want %d in 2", st.Shed, st.ShedBatches, 2*len(pkts))
	}
	admitted("after the sheds", context.Background())

	faultinject.Arm(faultinject.PanicSession, "pkts", 0, 1)
	var pe *ErrPoisoned
	if _, err := e.RunPacketsCtx(context.Background(), pkts); !errors.As(err, &pe) {
		t.Fatalf("panicking batch returned %v, want ErrPoisoned", err)
	}
	refused("poisoned", context.Background(), func(err error) bool { return errors.As(err, &pe) })
}
