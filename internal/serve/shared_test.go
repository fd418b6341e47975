package serve

import (
	"strings"
	"sync"
	"testing"

	"github.com/pegasus-idp/pegasus/internal/core"
	"github.com/pegasus-idp/pegasus/internal/pisa"
)

// seqMachine emits a fresh physically shared seq extraction machine
// (window 8 over 256 flow slots). Each call returns an independent
// handle with its own register storage, so baselines never share state
// with the run under test.
func seqMachine(t *testing.T) *core.SharedExtraction {
	t.Helper()
	shared, err := core.EmitSharedExtraction("px-shared-seq", pisa.Tofino2,
		core.ExtractSpec{Kind: core.ExtractSeq, Window: 8}, 256)
	if err != nil {
		t.Fatal(err)
	}
	return shared
}

// sharedSubscriber builds a register-free classifier bound to the
// machine: out0 = Σ window fields + bias, Class = out0. bias
// distinguishes models and program generations.
func sharedSubscriber(t *testing.T, name string, shared *core.SharedExtraction, bias int32) *core.Emitted {
	t.Helper()
	var l pisa.Layout
	win := shared.Em.OutFields
	ins := make([]pisa.FieldID, len(win))
	for i := range win {
		ins[i] = l.MustAdd(shared.Em.Prog.Layout.Name(win[i]), 16)
	}
	out0 := l.MustAdd("out0", 32)
	prog := pisa.NewProgram(name, &l, pisa.Tofino2)
	ops := []pisa.Op{{Kind: pisa.OpAddImm, Dst: out0, A: ins[0], Imm: bias}}
	for _, f := range ins[1:] {
		ops = append(ops, pisa.Op{Kind: pisa.OpAdd, Dst: out0, A: out0, B: f})
	}
	prog.Place(0, &pisa.Table{Name: "t_sum", Kind: pisa.MatchNone, DefaultData: []int32{}, Action: ops})
	if err := prog.Validate(); err != nil {
		t.Fatal(err)
	}
	em := &core.Emitted{Target: "test", Prog: prog, InFields: ins,
		OutFields: []pisa.FieldID{out0}, ClassField: out0, Stages: len(prog.Stages)}
	em.Shared = shared
	return em
}

// seqPackets builds a raw trace of nFlows interleaved flows with per
// packets each: distinct register slots, strictly increasing times.
// phase offsets the per-flow packet numbering so successive calls
// continue the same logical flows.
func seqPackets(nFlows, per, phase int) []pisa.PacketIn {
	var pkts []pisa.PacketIn
	for i := 0; i < per; i++ {
		for f := 0; f < nFlows; f++ {
			n := phase + i
			pkts = append(pkts, pisa.PacketIn{
				Hash:   uint32(f),
				Fields: []int32{int32(100 + 10*f + n), int32(1000*(n+1) + 10*f)},
			})
		}
	}
	return pkts
}

// detachResults deep-copies packet results out of the engine's reused
// arena.
func detachResults(res []pisa.PacketResult) []pisa.PacketResult {
	out := make([]pisa.PacketResult, len(res))
	for i, r := range res {
		out[i] = pisa.PacketResult{Pkt: r.Pkt, Class: r.Class, Outs: append([]int32(nil), r.Outs...)}
	}
	return out
}

func samePacketResults(t *testing.T, what string, got, want []pisa.PacketResult) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d fires, want %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i].Pkt != want[i].Pkt || got[i].Class != want[i].Class {
			t.Fatalf("%s: fire %d = (pkt %d, class %d), want (pkt %d, class %d)",
				what, i, got[i].Pkt, got[i].Class, want[i].Pkt, want[i].Class)
		}
		for j := range want[i].Outs {
			if got[i].Outs[j] != want[i].Outs[j] {
				t.Fatalf("%s: fire %d out[%d] = %d, want %d", what, i, j, got[i].Outs[j], want[i].Outs[j])
			}
		}
	}
}

// TestSharedMachineLifecycle covers the serving plane's subscriber
// lifecycle: three models attach to one machine, the machine pays the
// per-packet register RMWs exactly once (subscribers report zero),
// detaching one subscriber leaves the shared flow state untouched for
// the others, and only the LAST unregister resets the bank and releases
// the machine session.
func TestSharedMachineLifecycle(t *testing.T) {
	s := newTestServer(t)
	shared := seqMachine(t)
	ma, err := s.Register("m-a", sharedSubscriber(t, "sub-a", shared, 1), 1, SLO{})
	if err != nil {
		t.Fatal(err)
	}
	mb, err := s.Register("m-b", sharedSubscriber(t, "sub-b", shared, 2), 1, SLO{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Register("m-c", sharedSubscriber(t, "sub-c", shared, 3), 1, SLO{}); err != nil {
		t.Fatal(err)
	}

	// A stateful emission cannot subscribe.
	bad := statefulEmission(t, "bad-sub", 0, 2)
	bad.Shared = shared
	if _, err := s.Register("m-bad", bad, 1, SLO{}); err == nil || !strings.Contains(err.Error(), "registers") {
		t.Fatalf("stateful subscriber admitted: %v", err)
	}

	spec, subs, ok := ma.SharedMachine()
	if !ok || spec != shared.Spec {
		t.Fatalf("SharedMachine = (%v, %v, %v)", spec, subs, ok)
	}
	if len(subs) != 3 || subs[0] != "m-a" || subs[1] != "m-b" || subs[2] != "m-c" {
		t.Fatalf("subscribers %v, want [m-a m-b m-c]", subs)
	}

	// 8 flows × 12 packets: one full window plus 4 banked per flow. The
	// caller gets its own row; every subscriber classifies.
	const nFlows = 8
	run1 := seqPackets(nFlows, 12, 0)
	resA := detachResults(ma.RunPackets(run1))
	if len(resA) != nFlows {
		t.Fatalf("run1 fired %d windows, want %d", len(resA), nFlows)
	}

	// Exactly-once RMWs: the machine's count over this trace equals a
	// standalone machine engine's (one prelude), and every subscriber
	// reports zero.
	base := seqMachine(t)
	ref := base.Em.NewPacketEngine(1, pisa.ExecCompiled)
	ref.ResetState()
	ref.RunPackets(run1)
	wantRMWs := ref.Stats().RegRMWs
	ref.Close()
	snap := s.Snapshot()
	if len(snap.Machines) != 1 {
		t.Fatalf("%d machines in snapshot, want 1", len(snap.Machines))
	}
	mm := snap.Machines[0]
	if mm.Packets != uint64(len(run1)) || mm.RegRMWs != wantRMWs || wantRMWs == 0 {
		t.Fatalf("machine packets %d RMWs %d, want %d packets and %d RMWs (exactly once)",
			mm.Packets, mm.RegRMWs, len(run1), wantRMWs)
	}
	if len(mm.Subscribers) != 3 {
		t.Fatalf("machine subscribers %v", mm.Subscribers)
	}
	for _, md := range snap.Models {
		if md.RegRMWs != 0 {
			t.Fatalf("subscriber %s executed %d register RMWs", md.Name, md.RegRMWs)
		}
		if md.SharedMachine == "" {
			t.Fatalf("subscriber %s reports no shared machine", md.Name)
		}
		// Every subscriber classified each fired window once, inside the
		// machine's tasks: its row counts exactly those windows, and the
		// tasks are the machine's.
		if md.Packets != nFlows || md.Tasks != 0 {
			t.Fatalf("subscriber %s counts %d windows in %d tasks, want %d windows and no tasks of its own",
				md.Name, md.Packets, md.Tasks, nFlows)
		}
	}

	// Detach one subscriber: the shared registers are untouched, so the
	// 4 banked packets per flow complete their window 4 packets into the
	// next run (2 fires/flow over 12 more packets — a reset bank would
	// fire once).
	if err := s.Unregister("m-c"); err != nil {
		t.Fatal(err)
	}
	if _, subs, _ := ma.SharedMachine(); len(subs) != 2 {
		t.Fatalf("subscribers after detach %v", subs)
	}
	run2 := seqPackets(nFlows, 12, 12)
	resB := detachResults(mb.RunPackets(run2))
	if len(resB) != 2*nFlows {
		t.Fatalf("run2 fired %d windows, want %d (detach reset the shared bank?)", len(resB), 2*nFlows)
	}

	// Last subscriber out: machine released and bank reset — a fresh
	// tenant banks from zero (4 packets fire nothing, 4 more fire).
	if err := s.Unregister("m-a"); err != nil {
		t.Fatal(err)
	}
	if err := s.Unregister("m-b"); err != nil {
		t.Fatal(err)
	}
	if snap := s.Snapshot(); len(snap.Machines) != 0 {
		t.Fatalf("machines after last detach: %+v", snap.Machines)
	}
	md, err := s.Register("m-d", sharedSubscriber(t, "sub-d", shared, 4), 1, SLO{})
	if err != nil {
		t.Fatal(err)
	}
	if res := md.RunPackets(seqPackets(nFlows, 4, 24)); len(res) != 0 {
		t.Fatalf("fresh tenant inherited %d banked windows", len(res))
	}
	if res := md.RunPackets(seqPackets(nFlows, 4, 28)); len(res) != nFlows {
		t.Fatalf("fresh tenant fired %d windows over a full window, want %d", len(res), nFlows)
	}
}

// TestTuneOnceLeavesTaskLessSubscriber pins that a subscriber whose
// windows are classified inside the machine's tasks — it serves no task
// of its own, so it has no busy time or wait to tune on — keeps its
// weight through a tuner pass that does move a private co-resident
// model off target.
func TestTuneOnceLeavesTaskLessSubscriber(t *testing.T) {
	s := newTestServer(t)
	shared := seqMachine(t)
	sub, err := s.Register("m-sub", sharedSubscriber(t, "sub", shared, 1), 3, SLO{TargetShare: 0.5, MaxWait: 1})
	if err != nil {
		t.Fatal(err)
	}
	priv, err := s.Register("m-priv", statelessEmission(t, "priv", 1, 1), 4, SLO{TargetShare: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	if res := sub.RunPackets(seqPackets(8, 8, 0)); len(res) != 8 {
		t.Fatalf("subscriber classified %d windows, want 8", len(res))
	}
	jobs := make([]pisa.Job, 64)
	for i := range jobs {
		jobs[i] = pisa.Job{Hash: uint32(i), In: []int32{int32(i)}}
	}
	priv.Run(jobs)
	moved := map[string]bool{}
	for _, d := range s.TuneOnce() {
		moved[d.Model] = true
	}
	if !moved["m-priv"] {
		t.Fatal("tuner did not move the private model, which holds all the busy time against a 0.25 target")
	}
	if moved["m-sub"] || sub.Weight() != 3 {
		t.Fatalf("tuner moved the task-less subscriber's weight to %d", sub.Weight())
	}
	if st := sub.Stats(); st.Tasks != 0 || st.Packets != 8 {
		t.Fatalf("subscriber stats %d tasks / %d windows, want 0 / 8", st.Tasks, st.Packets)
	}
}

// TestSwapSharedSubscriber pins the live-swap semantics on a fan-out:
// swapping one subscriber mid-stream leaves the co-subscriber's
// classifications and the shared registers bit-identical to never
// having swapped — windows spanning the swap keep filling — and the
// unsupported shapes (canary on a subscriber, rebinding machines,
// crossing private↔shared) are rejected.
func TestSwapSharedSubscriber(t *testing.T) {
	const nFlows = 8
	half1 := seqPackets(nFlows, 12, 0)
	half2 := seqPackets(nFlows, 12, 12)

	// Baseline: no swap, same traffic split.
	sBase := newTestServer(t)
	sharedBase := seqMachine(t)
	baseA, err := sBase.Register("m-a", sharedSubscriber(t, "sub-a", sharedBase, 1), 1, SLO{})
	if err != nil {
		t.Fatal(err)
	}
	baseB, err := sBase.Register("m-b", sharedSubscriber(t, "sub-b", sharedBase, 2), 1, SLO{})
	if err != nil {
		t.Fatal(err)
	}
	wantA1 := detachResults(baseA.RunPackets(half1))
	wantB2 := detachResults(baseB.RunPackets(half2))

	s := newTestServer(t)
	shared := seqMachine(t)
	ma, err := s.Register("m-a", sharedSubscriber(t, "sub-a", shared, 1), 1, SLO{})
	if err != nil {
		t.Fatal(err)
	}
	mb, err := s.Register("m-b", sharedSubscriber(t, "sub-b", shared, 2), 1, SLO{})
	if err != nil {
		t.Fatal(err)
	}
	gotA1 := detachResults(ma.RunPackets(half1))
	samePacketResults(t, "m-a half1", gotA1, wantA1)

	// Rejections first: canary, foreign machine, shared→private.
	if _, err := ma.Swap(sharedSubscriber(t, "sub-a2", shared, 1),
		SwapOptions{Canary: &CanaryOptions{Fraction: 0.5}}); err == nil {
		t.Fatal("canary swap accepted on a shared-extraction subscriber")
	}
	other := seqMachine(t)
	if _, err := ma.Swap(sharedSubscriber(t, "sub-ax", other, 1), SwapOptions{}); err == nil ||
		!strings.Contains(err.Error(), "shared extraction machine") {
		t.Fatalf("machine rebind accepted: %v", err)
	}
	if _, err := ma.Swap(statelessEmission(t, "sub-priv", 1, 2), SwapOptions{}); err == nil {
		t.Fatal("shared→private swap accepted")
	}

	// The real swap: a fresh generation of m-a, same machine, identical
	// function. Co-subscriber m-b and the shared bank must not notice.
	rep, err := ma.Swap(sharedSubscriber(t, "sub-a", shared, 1), SwapOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.To != rep.From+1 || rep.MigratedRegisters != 0 {
		t.Fatalf("swap report %+v (subscribers are register-free)", rep)
	}
	if ma.Version() != rep.To {
		t.Fatalf("version %d after swap, want %d", ma.Version(), rep.To)
	}
	gotB2 := detachResults(mb.RunPackets(half2))
	samePacketResults(t, "m-b half2 (windows spanning the swap)", gotB2, wantB2)

	// A private model cannot swap to a subscriber emission.
	mp, err := s.Register("m-p", statelessEmission(t, "priv", 5, 2), 1, SLO{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mp.Swap(sharedSubscriber(t, "priv2", shared, 5), SwapOptions{}); err == nil ||
		!strings.Contains(err.Error(), "unregister and re-register") {
		t.Fatalf("private→shared swap accepted: %v", err)
	}
}

// TestSharedFanoutRace drives one machine's fan-out from two subscriber
// models concurrently while a third goroutine scrapes metrics, a fourth
// live-swaps a subscriber and a fifth serves window jobs on m-a's own
// session while m-b's fan-out runs m-a's plans — the -race CI run holds
// the lock discipline (the running model's own runMu, then fan.mu) and
// the per-subscriber PHVs to account.
func TestSharedFanoutRace(t *testing.T) {
	s := newTestServer(t)
	shared := seqMachine(t)
	ma, err := s.Register("m-a", sharedSubscriber(t, "sub-a", shared, 1), 1, SLO{})
	if err != nil {
		t.Fatal(err)
	}
	mb, err := s.Register("m-b", sharedSubscriber(t, "sub-b", shared, 2), 1, SLO{})
	if err != nil {
		t.Fatal(err)
	}
	const iters = 40
	var wg sync.WaitGroup
	for g, m := range []*Model{ma, mb} {
		wg.Add(1)
		go func(g int, m *Model) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				m.RunPackets(seqPackets(4, 8, 8*i))
			}
		}(g, m)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			snap := s.Snapshot()
			if len(snap.Machines) != 1 {
				t.Errorf("snapshot saw %d machines", len(snap.Machines))
				return
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		jobs := make([]pisa.Job, 16)
		for i := range jobs {
			jobs[i] = pisa.Job{Hash: uint32(i), In: make([]int32, len(shared.Em.OutFields))}
			jobs[i].In[0] = int32(i)
		}
		for i := 0; i < iters; i++ {
			for k, r := range ma.Run(jobs) {
				if r.Class != k+1 { // Σ window + bias 1
					t.Errorf("window job %d classified %d, want %d", k, r.Class, k+1)
					return
				}
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 4; i++ {
			if _, err := mb.Swap(sharedSubscriber(t, "sub-b", shared, 2), SwapOptions{}); err != nil {
				t.Errorf("swap under load: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	snap := s.Snapshot()
	if snap.Machines[0].Packets == 0 {
		t.Fatal("machine processed no packets")
	}
	for _, md := range snap.Models {
		if md.RegRMWs != 0 {
			t.Fatalf("subscriber %s executed %d register RMWs", md.Name, md.RegRMWs)
		}
	}
}
