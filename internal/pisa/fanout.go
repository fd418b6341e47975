package pisa

import (
	"slices"
	"sync"
)

// Fanout is the physically-shared-extraction group: ONE
// packet-configured extraction engine owns the flow-state registers and
// executes each packet's register RMWs exactly once, and each
// subscribed engine — a pure-combinational chain from window in-fields
// to class/outputs — classifies every window it fires. Subscribers run
// inside the machine's shard tasks (see Engine), so a batch is one
// dispatch, accounted (tasks, busy, wait) on the machine's session. A
// subscriber's plans are shared read-only and its session still serves
// window jobs, where its weight and shed policy apply; its stats count
// exactly the windows it classified. A panicking subscriber plan
// poisons that subscriber alone, which is skipped from then on.
//
// The fan-out is bit-identical to running each subscriber's fused
// private-prelude engine on the same trace: the extraction program is
// the same emitted prelude, packets shard by the same flow hash, and
// each fired window reaches every subscriber with the same values a
// fused pipe-0 readout would have produced in place.
type Fanout struct {
	ext *Engine

	// mu serializes RunPackets against Subscribe/Detach/Swap (ext.subs
	// changes only under it); the extraction engine's
	// single-outstanding-run contract is inherited through it.
	mu sync.Mutex
}

// NewFanout wraps a packet-configured extraction engine (built from a
// standalone extraction emission via ConfigurePackets) as the shared
// machine of a fan-out group.
func NewFanout(ext *Engine) *Fanout {
	if ext.meta == nil {
		panic("pisa: NewFanout needs a packet-configured extraction engine")
	}
	return &Fanout{ext: ext}
}

// Extraction returns the shared extraction engine (stats, ResetState).
func (f *Fanout) Extraction() *Engine { return f.ext }

// Subscribe attaches a classifier engine: every window the shared
// machine fires from now on is also classified by e. The subscriber
// must consume the extraction program's output fields as its input
// fields (core.SharedExtraction emissions guarantee this) and must be
// stateless — a register bank on a subscriber would see only fired
// windows, not every packet, and silently diverge from its private
// form.
func (f *Fanout) Subscribe(e *Engine) {
	for _, p := range e.progs {
		if len(p.Registers) > 0 {
			panic("pisa: fan-out subscriber " + p.Name + " has registers; subscribers must be pure-combinational")
		}
	}
	f.mu.Lock()
	f.ext.subs = append(f.ext.subs, newSubscriber(e, f.ext.shards))
	f.mu.Unlock()
}

// Detach removes a subscriber without touching the shared flow state —
// co-subscribers keep classifying against the registers exactly as if
// the departed model were still attached. Only when the LAST subscriber
// leaves is the shared bank reset (returning true), so the next tenant
// starts from a fresh flow table instead of inheriting half-filled
// windows. Detaching an engine that is not subscribed is a no-op.
func (f *Fanout) Detach(e *Engine) (last bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.ext.subs = slices.DeleteFunc(f.ext.subs, func(s *subscriber) bool { return s.e == e })
	if len(f.ext.subs) == 0 {
		f.ext.ResetState()
		return true
	}
	return false
}

// SwapSubscriber replaces old with next in place (same fan-out slot),
// leaving the shared registers and every co-subscriber untouched — the
// live-swap hook: a model's new version attaches exactly where its old
// one sat. Reports whether old was subscribed.
func (f *Fanout) SwapSubscriber(old, next *Engine) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	for i, s := range f.ext.subs {
		if s.e == old {
			f.ext.subs[i] = newSubscriber(next, f.ext.shards)
			return true
		}
	}
	return false
}

// Subscribers returns a snapshot of the attached engines, in
// subscription order.
func (f *Fanout) Subscribers() []*Engine {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.engines()
}

// engines lists the subscribed engines; the caller holds mu.
func (f *Fanout) engines() []*Engine {
	engs := make([]*Engine, len(f.ext.subs))
	for i, s := range f.ext.subs {
		engs[i] = s.e
	}
	return engs
}

// RunPackets replays a raw-packet batch through the shared extraction
// machine ONCE — every packet pays its register RMWs exactly once — and
// returns each subscriber's classifications of the fired windows (in
// subscription order), each in packet order with Pkt indexing into
// pkts. A poisoned subscriber's row is nil. Outs alias per-subscriber
// staging that the next call overwrites, matching the machine's own
// RunPackets. Flow state persists across calls (ResetState on the
// extraction engine starts a fresh trace); calls must not overlap.
func (f *Fanout) RunPackets(pkts []PacketIn) [][]PacketResult {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.run(pkts)
}

// RunPacketsAligned is RunPackets plus the subscriber snapshot the
// result rows align with, taken atomically with the run — callers that
// race Subscribe/Detach use it to find their own session's row.
func (f *Fanout) RunPacketsAligned(pkts []PacketIn) ([]*Engine, [][]PacketResult) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.engines(), f.run(pkts)
}

// run is one machine run plus one packet-order merge per healthy
// subscriber; the caller holds mu.
func (f *Fanout) run(pkts []PacketIn) [][]PacketResult {
	subs := f.ext.subs
	rows := make([][]PacketResult, len(subs))
	if len(pkts) == 0 {
		return rows
	}
	f.ext.runPackets(pkts)
	for i, s := range subs {
		if s.e.poisoned.Load() != nil {
			continue
		}
		rows[i] = f.ext.mergeFires(s.res, len(s.e.out))
		s.e.stats[s.e.selfSlot()].packets.Add(uint64(len(rows[i])))
	}
	return rows
}

// subscriber is one fan-out subscriber: its engine (plans and fields,
// read-only here) plus a PHV chain and a fire staging per MACHINE shard,
// so a machine task writes nothing the subscriber's own session or
// another machine shard writes.
type subscriber struct {
	e    *Engine
	phvs [][]*PHV   // [machine shard][pipe]
	res  []shardRes // [machine shard]
}

func newSubscriber(e *Engine, shards int) *subscriber {
	s := &subscriber{e: e, phvs: make([][]*PHV, shards), res: make([]shardRes, shards)}
	for sh := range s.phvs {
		s.phvs[sh] = e.newPHVs()
	}
	return s
}

// run classifies the windows machine shard sh has just staged in src
// (w values each) into the subscriber's staging for that shard. A panic
// poisons the subscriber alone; a poisoned subscriber is skipped.
func (s *subscriber) run(src *shardRes, w, sh int) {
	e := s.e
	if e.poisoned.Load() != nil {
		return
	}
	defer func() {
		if r := recover(); r != nil {
			e.poison(r)
		}
	}()
	e.faults()
	phvs, dst := s.phvs[sh], &s.res[sh]
	for k, pkt := range src.fireIdx {
		dst.stage(pkt, e.runWindow(phvs, src.fireOuts[k*w:(k+1)*w]), e.class, e.out)
	}
}
