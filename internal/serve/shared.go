package serve

import (
	"fmt"

	"github.com/pegasus-idp/pegasus/internal/core"
	"github.com/pegasus-idp/pegasus/internal/pisa"
)

// Physically shared extraction on the serving plane. Models registered
// with an Emitted.Shared handle are pure-combinational subscribers of
// one standalone extraction machine: the server brings the machine's
// session up on first subscription, attaches every later subscriber to
// the same pisa.Fanout, and routes their RunPackets through it — each
// packet's register RMWs execute once on the machine, and every
// subscriber's plans run inside the machine's shard tasks, regardless of
// how many models are co-resident. A subscriber's own session still
// serves its window jobs (Model.Run), where its weight, SLO and shed
// policy apply. Unregister and Swap detach/replace subscribers without
// touching the shared flow state; only when the LAST subscriber leaves
// is the machine reset and its session released.

// sharedMachine is one physical extraction machine on the server: the
// standalone extraction session plus the fan-out handing fired windows
// to the subscriber models. subs tracks subscriber model names in
// subscription order (guarded by srv.mu).
type sharedMachine struct {
	handle *core.SharedExtraction
	eng    *pisa.Engine
	fan    *pisa.Fanout
	subs   []string
}

// checkSubscriber rejects subscriber emissions that carry registers: a
// stateful subscriber would see only fired windows, not every packet,
// and silently diverge from its private-prelude form.
func checkSubscriber(op, name string, em *core.Emitted) error {
	for _, p := range em.Programs() {
		if len(p.Registers) > 0 {
			return fmt.Errorf("serve: %s %q rejected: shared-extraction subscriber program %q has registers (emit with EmitShared)",
				op, name, p.Name)
		}
	}
	return nil
}

// attachSharedLocked binds a subscriber emission to its machine,
// creating the machine's session on first use. Caller holds s.mu and
// has already admitted em.
func (s *Server) attachSharedLocked(name string, em *core.Emitted, weight int) (*sharedMachine, *pisa.Engine, error) {
	if err := checkSubscriber("register", name, em); err != nil {
		return nil, nil, err
	}
	mach := s.machines[em.Shared]
	if mach == nil {
		ext := em.Shared.Em
		if ext == nil || ext.Extract == nil {
			return nil, nil, fmt.Errorf("serve: register %q rejected: shared-extraction handle carries no machine emission", name)
		}
		mach = &sharedMachine{
			handle: em.Shared,
			eng:    ext.NewPacketEngineOn(s.sched, "extract:"+ext.Prog.Name, 1, s.mode),
		}
		mach.fan = pisa.NewFanout(mach.eng)
		s.machines[em.Shared] = mach
	}
	eng := s.newEngine(em, name, 1, weight)
	mach.fan.Subscribe(eng)
	mach.subs = append(mach.subs, name)
	return mach, eng, nil
}

// detachShared removes the model from its machine's fan-out. The
// shared flow state is untouched — co-subscribers keep classifying
// against the same registers — unless the model was the LAST
// subscriber, in which case the machine's registers reset (inside
// Detach) and its session closes.
func (s *Server) detachShared(m *Model) {
	m.stateMu.RLock()
	eng := m.cur.eng
	m.stateMu.RUnlock()
	mach := m.shared
	last := mach.fan.Detach(eng)
	s.mu.Lock()
	for i, n := range mach.subs {
		if n == m.name {
			mach.subs = append(mach.subs[:i], mach.subs[i+1:]...)
			break
		}
	}
	if last {
		delete(s.machines, mach.handle)
	}
	s.mu.Unlock()
	if last {
		// Detach serialized against any in-flight fan-out run, and with
		// no subscribers left nothing can submit through the machine
		// again: its session is quiescent.
		mach.eng.Close()
	}
}

// SharedMachine reports the model's physical extraction binding: the
// machine's resolved spec and its subscriber models in subscription
// order. ok is false for models serving a private (fused or windowed)
// emission.
func (m *Model) SharedMachine() (spec core.ExtractSpec, subscribers []string, ok bool) {
	if m.shared == nil {
		return core.ExtractSpec{}, nil, false
	}
	s := m.srv
	s.mu.Lock()
	subscribers = append([]string(nil), m.shared.subs...)
	s.mu.Unlock()
	return m.shared.handle.Spec, subscribers, true
}
