package pisa

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"github.com/pegasus-idp/pegasus/internal/faultinject"
)

// randSubscriber builds a random register-free window chain that
// consumes w 32-bit window fields: an always-unit deriving a selector,
// a value and a flag from the window, then a random stateless tail
// (addRandTail's unit kinds and gate families), continued behind a
// bridge in a second pipe when pipes is 2.
func randSubscriber(t *testing.T, rng *rand.Rand, w, pipes int) slicedChain {
	t.Helper()
	var l Layout
	var in []FieldID
	for i := 0; i < w; i++ {
		in = append(in, l.MustAdd(nm("win", i), 32))
	}
	io := tailIO{sel: l.MustAdd("sel", 8), val: l.MustAdd("val", 16), fire: l.MustAdd("fire", 8)}
	for i := 0; i < 4; i++ {
		io.outs = append(io.outs, l.MustAdd(nm("out", i), 32))
	}
	io.src = append(append([]FieldID{}, in...), io.outs...)
	io.class = l.MustAdd("class", 8)
	prog := NewProgram("sub-fuzz", &l, Tofino2.Pipes(4))
	prog.Place(0, &Table{Name: "derive", Kind: MatchNone, DefaultData: []int32{},
		Action: []Op{
			{Kind: OpAndImm, Dst: io.sel, A: in[0], Imm: 3},
			{Kind: OpAndImm, Dst: io.val, A: in[1%w], Imm: 0x7fff},
			{Kind: OpAndImm, Dst: io.fire, A: in[2%w], Imm: 1},
		}})
	addRandTail(rng, prog, 1, io, 2+rng.Intn(5), 0)
	c := slicedChain{progs: []*Program{prog}, in: in, outs: io.outs, class: io.class}
	if pipes == 2 {
		addBridgedPipe(rng, &c, io)
	}
	for _, p := range c.progs {
		if err := p.Validate(); err != nil {
			t.Fatalf("random subscriber invalid: %v", err)
		}
	}
	return c
}

// windowEngine is a solo engine over a window chain.
func windowEngine(c slicedChain, shards int, mode ExecMode) *Engine {
	return NewChainEngineMode(c.progs, c.bridges, c.in, c.outs, c.class, shards, mode)
}

// machineOnly replays batches through a fresh machine engine with no
// subscriber from a clean flow table: each batch's fires (detached),
// the machine's RMW count and its final registers.
func machineOnly(c slicedChain, batches [][]PacketIn, shards int, mode ExecMode) ([][]PacketResult, uint64, [][]int32) {
	e := NewChainEngineMode(c.progs, c.bridges, nil, c.outs, c.class, shards, mode)
	defer e.Close()
	e.ConfigurePackets(c.meta)
	e.ResetState()
	fires := make([][]PacketResult, len(batches))
	for b, pkts := range batches {
		for _, r := range e.RunPackets(pkts) {
			r.Outs = append([]int32(nil), r.Outs...)
			fires[b] = append(fires[b], r)
		}
	}
	return fires, e.Stats().RegRMWs, snapshotRegs(c.progs[0])
}

// windowRef classifies the machine's fired windows of one batch with a
// twin engine over the subscriber's chain: the rows the fan-out must
// produce for that subscriber.
func windowRef(c slicedChain, pkts []PacketIn, fires []PacketResult, mode ExecMode) []PacketResult {
	jobs := make([]Job, len(fires))
	for k, f := range fires {
		jobs[k] = Job{Hash: pkts[f.Pkt].Hash, In: f.Outs}
	}
	e := windowEngine(c, 2, mode)
	defer e.Close()
	want := make([]PacketResult, len(fires))
	for k, r := range e.RunBatch(jobs) {
		want[k] = PacketResult{Pkt: fires[k].Pkt, Class: r.Class, Outs: append([]int32(nil), r.Outs...)}
	}
	return want
}

func sameRows(t *testing.T, tag string, got, want []PacketResult) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", tag, len(got), len(want))
	}
	for k, w := range want {
		g := got[k]
		if g.Pkt != w.Pkt || g.Class != w.Class {
			t.Fatalf("%s row %d: (pkt %d class %d), want (pkt %d class %d)", tag, k, g.Pkt, g.Class, w.Pkt, w.Class)
		}
		for j := range w.Outs {
			if g.Outs[j] != w.Outs[j] {
				t.Fatalf("%s pkt %d out[%d]: %d, want %d", tag, g.Pkt, j, g.Outs[j], w.Outs[j])
			}
		}
	}
}

// sameMachine requires the fan-out's machine to have left the RMW count
// and registers of a machine-only run.
func sameMachine(t *testing.T, tag string, ext *Engine, c slicedChain, rmws uint64, regs [][]int32) {
	t.Helper()
	if got := ext.Stats().RegRMWs; got != rmws {
		t.Fatalf("%s: machine executed %d register RMWs, machine-only %d", tag, got, rmws)
	}
	for r, cells := range snapshotRegs(c.progs[0]) {
		for cell, v := range cells {
			if v != regs[r][cell] {
				t.Fatalf("%s: register %d cell %d = %d, machine-only %d", tag, r, cell, v, regs[r][cell])
			}
		}
	}
}

// TestFanoutSubscribersDifferential fuzzes the fan-out: a random
// stateful machine (the fire-sliced chain generator's, fire write and
// all) and zero to three random stateless subscribers, one of them two
// bridged pipes, replayed at 1, 2 and 4 machine shards in both exec
// modes, with subscribers attached, detached and swapped between
// batches. Every subscriber's rows must equal its own RunBatch over the
// machine's fired windows, it must execute no register op and count
// exactly the windows it classified, and the machine must leave the
// RMWs and registers of a machine-only run.
func TestFanoutSubscribersDifferential(t *testing.T) {
	rng := drawRNG(t, 41)
	for trial := 0; trial < 12; trial++ {
		mach, _, _ := randSlicedChain(t, rng, 1<<(2+rng.Intn(3)), 1)
		w := len(mach.outs)
		var chains []slicedChain
		for i := rng.Intn(4); i > 0; i-- {
			chains = append(chains, randSubscriber(t, rng, w, 1+len(chains)%2))
		}
		late, swapIn := randSubscriber(t, rng, w, 1), randSubscriber(t, rng, w, 2)
		batches := [][]PacketIn{randSlicedPackets(rng, 150), randSlicedPackets(rng, 1+rng.Intn(40)), randSlicedPackets(rng, 200)}
		for _, shards := range []int{1, 2, 4} {
			for _, mode := range []ExecMode{ExecInterpret, ExecCompiled} {
				tag := fmt.Sprintf("trial %d [%v s%d]", trial, mode, shards)
				fires, rmws, regs := machineOnly(mach, batches, shards, mode)

				ext := NewChainEngineMode(mach.progs, mach.bridges, nil, mach.outs, mach.class, shards, mode)
				ext.ConfigurePackets(mach.meta)
				ext.ResetState()
				fan := NewFanout(ext)
				type attached struct {
					c    slicedChain
					e    *Engine
					rows int
				}
				var cur, all []*attached
				attach := func(c slicedChain) *attached {
					a := &attached{c: c, e: windowEngine(c, 1, mode)}
					all = append(all, a)
					return a
				}
				for _, c := range chains {
					a := attach(c)
					fan.Subscribe(a.e)
					cur = append(cur, a)
				}
				for b, pkts := range batches {
					switch b {
					case 1: // a late subscriber joins, the first one leaves
						a := attach(late)
						fan.Subscribe(a.e)
						cur = append(cur, a)
						if len(cur) > 1 {
							if fan.Detach(cur[0].e) {
								t.Fatalf("%s: detaching with a co-subscriber left reported the last one", tag)
							}
							cur = cur[1:]
						}
					case 2: // the newest subscriber is swapped in place
						a := attach(swapIn)
						if !fan.SwapSubscriber(cur[len(cur)-1].e, a.e) {
							t.Fatalf("%s: swap found no subscriber", tag)
						}
						cur[len(cur)-1] = a
					}
					rows := fan.RunPackets(pkts)
					if len(rows) != len(cur) {
						t.Fatalf("%s batch %d: %d rows for %d subscribers", tag, b, len(rows), len(cur))
					}
					for i, a := range cur {
						sameRows(t, fmt.Sprintf("%s batch %d sub %d", tag, b, i), rows[i], windowRef(a.c, pkts, fires[b], mode))
						a.rows += len(rows[i])
					}
				}
				sameMachine(t, tag, ext, mach, rmws, regs)
				// Only the last subscriber out resets the shared bank.
				for i, a := range cur {
					if last := fan.Detach(a.e); last != (i == len(cur)-1) {
						t.Fatalf("%s: detach %d of %d reported last=%v", tag, i+1, len(cur), last)
					}
				}
				for _, r := range mach.progs[0].Registers {
					for cell := 0; cell < r.Size; cell++ {
						if v := r.Get(cell); v != r.Init {
							t.Fatalf("%s: register %s cell %d = %d after the last detach, want its initial %d", tag, r.Name, cell, v, r.Init)
						}
					}
				}
				for i, a := range all {
					if st := a.e.Stats(); st.RegRMWs != 0 || st.Packets != uint64(a.rows) || st.Tasks != 0 {
						t.Fatalf("%s sub %d: %d RMWs, %d packets in %d tasks; want 0 RMWs and its %d rows, no tasks",
							tag, i, st.RegRMWs, st.Packets, st.Tasks, a.rows)
					}
					a.e.Close()
				}
				ext.Close()
			}
		}
	}
}

// TestFanoutSubscriberPanicIsolated pins per-subscriber failure
// isolation inside the machine's tasks, for a panic injected into the
// middle subscriber's session and for a genuine plan panic mid-batch:
// the panic poisons that subscriber only. Its rows are nil from the
// batch it panicked in on (never the windows it staged before the
// panic), it counts no windows and it is skipped from then on, while
// the machine and the co-subscribers keep serving bit-identically with
// the machine's registers intact.
func TestFanoutSubscriberPanicIsolated(t *testing.T) {
	defer faultinject.Reset()
	rng := rand.New(rand.NewSource(43))
	mach, _, _ := randSlicedChain(t, rng, 8, 1)
	w := len(mach.outs)
	batches := [][]PacketIn{randSlicedPackets(rng, 300), randSlicedPackets(rng, 300)}
	chains := []slicedChain{randSubscriber(t, rng, w, 1), randSubscriber(t, rng, w, 1), randSubscriber(t, rng, w, 1)}

	faultinject.Arm(faultinject.PanicSession, "sub1", 0, 1)
	checkIsolated(t, "injected", mach, chains, batches, 2, ExecCompiled)
	if faultinject.Peek(faultinject.PanicSession, "sub1") {
		t.Fatal("the injected panic never fired: it must fire inside the machine's task")
	}

	// One shard runs the windows in packet order, so the panicking
	// subscriber has staged windows when it trips.
	fires, _, _ := machineOnly(mach, batches[:1], 1, ExecInterpret)
	if trip := slices.IndexFunc(fires[0], func(r PacketResult) bool { return r.Outs[w-1]&3 == 3 }); trip < 1 {
		t.Fatalf("the mid-batch panic trips at fired window %d of the first batch; it must trip after one", trip)
	}
	chains[1] = shortDataSubscriber(w)
	checkIsolated(t, "mid-batch", mach, chains, batches, 1, ExecInterpret)
}

// shortDataSubscriber is a window chain whose interpreted plan panics on
// the windows whose last field is 3 mod 4: that entry carries no action
// data.
func shortDataSubscriber(w int) slicedChain {
	var l Layout
	var in []FieldID
	for i := 0; i < w; i++ {
		in = append(in, l.MustAdd(nm("win", i), 32))
	}
	sel, out := l.MustAdd("sel", 8), l.MustAdd("out", 32)
	prog := NewProgram("short-data", &l, Tofino2)
	prog.Place(0, &Table{Name: "sel", Kind: MatchNone, DefaultData: []int32{},
		Action: []Op{{Kind: OpAndImm, Dst: sel, A: in[w-1], Imm: 3}}})
	tbl := &Table{Name: "lookup", Kind: MatchExact, KeyFields: []FieldID{sel}, KeyWidths: []int{2},
		Action: []Op{{Kind: OpSetData, Dst: out, DataIdx: 0}}}
	for v := uint32(0); v < 4; v++ {
		data := []int32{int32(v)}
		if v == 3 {
			data = nil
		}
		tbl.Entries = append(tbl.Entries, Entry{Key: []uint32{v}, Data: data})
	}
	prog.Place(1, tbl)
	return slicedChain{progs: []*Program{prog}, in: in, outs: []FieldID{out}, class: out}
}

// checkIsolated replays batches through a fan-out of chains on a
// scheduler of the given budget, expecting subscriber 1 to panic in the
// first batch and the others to match their references.
func checkIsolated(t *testing.T, tag string, mach slicedChain, chains []slicedChain, batches [][]PacketIn, shards int, mode ExecMode) {
	t.Helper()
	fires, rmws, regs := machineOnly(mach, batches, shards, mode)
	s := NewScheduler(shards)
	defer s.Close()
	ext := s.NewChainEngine("machine", mach.progs, nil, nil, mach.outs, mach.class, 1, mode)
	defer ext.Close()
	ext.ConfigurePackets(mach.meta)
	ext.ResetState()
	fan := NewFanout(ext)
	var subs []*Engine
	for i, c := range chains {
		e := s.NewChainEngine(nm("sub", i), c.progs, nil, c.in, c.outs, c.class, 1, mode)
		defer e.Close()
		fan.Subscribe(e)
		subs = append(subs, e)
	}
	for b, pkts := range batches {
		rows := fan.RunPackets(pkts)
		if rows[1] != nil {
			t.Fatalf("%s batch %d: poisoned subscriber returned %d rows", tag, b, len(rows[1]))
		}
		for _, i := range []int{0, 2} {
			sameRows(t, fmt.Sprintf("%s batch %d sub %d", tag, b, i), rows[i], windowRef(chains[i], pkts, fires[b], mode))
		}
	}
	for sh := range ext.subs[1].res {
		if n := len(ext.subs[1].res[sh].fireIdx); n != 0 {
			t.Fatalf("%s: the poisoned subscriber still ran: shard %d staged %d windows in the last batch", tag, sh, n)
		}
	}
	var pe *ErrPoisoned
	if err := subs[1].Poisoned(); !errors.As(err, &pe) || pe.Session != "sub1" {
		t.Fatalf("%s: subscriber 1 poison = %v, want ErrPoisoned on sub1", tag, err)
	}
	if st := subs[1].Stats(); st.Tasks != 0 || st.Packets != 0 {
		t.Fatalf("%s: poisoned subscriber counts %d tasks / %d windows, want 0 / 0", tag, st.Tasks, st.Packets)
	}
	for _, e := range []*Engine{ext, subs[0], subs[2]} {
		if err := e.Poisoned(); err != nil {
			t.Fatalf("%s: panic leaked past its subscriber: %v", tag, err)
		}
	}
	sameMachine(t, tag+" after the panic", ext, mach, rmws, regs)
}

// TestFanoutAllocsPerBatch pins what the fan-out costs in allocations:
// three subscribers add at most one row each plus the row slice over a
// machine-only fan-out of the same batch.
func TestFanoutAllocsPerBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	mach, _, _ := randSlicedChain(t, rng, 16, 1)
	var chains []slicedChain
	for i := 0; i < 3; i++ {
		chains = append(chains, randSubscriber(t, rng, len(mach.outs), 1+i%2))
	}
	pkts := randSlicedPackets(rng, 512)
	s := NewScheduler(2)
	defer s.Close()
	ext := s.NewChainEngine("machine", mach.progs, nil, nil, mach.outs, mach.class, 1, ExecCompiled)
	defer ext.Close()
	ext.ConfigurePackets(mach.meta)
	fan := NewFanout(ext)
	// Each run replays the batch from a clean flow table, so every run
	// fires the same windows and the staging has grown after the first.
	run := func() {
		ext.ResetState()
		fan.RunPackets(pkts)
	}
	bare := testing.AllocsPerRun(50, run)
	for i, c := range chains {
		e := s.NewChainEngine(nm("sub", i), c.progs, c.bridges, c.in, c.outs, c.class, 1, ExecCompiled)
		defer e.Close()
		fan.Subscribe(e)
	}
	full := testing.AllocsPerRun(50, run)
	if full-bare > 4 {
		t.Fatalf("fan-out allocates %.2f per batch with 3 subscribers, %.2f with none: more than a row each plus the row slice", full, bare)
	}
}
