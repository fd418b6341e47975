// Package serve is the serving control plane over the shared-budget
// scheduler: the host-side runtime that operates a multi-model switch
// deployment as an inference service (Pegasus §7.4/§8 frame the
// dataplane this way; Taurus and FENIX argue per-packet ML needs
// exactly this admit/monitor/swap loop next to the datapath).
//
// A Server owns one pisa.Scheduler and a core.Deployment-shaped
// capacity ledger. Models enter through Register, which ADMITS the
// candidate emission against the remaining combined budget and rejects
// over-capacity registrations with a structured resource report before
// any scheduler state changes. Registered models are served through
// Model.Submit/Run, swapped live through Model.Swap (drain + state
// migration, zero dropped results), retuned by the SLO feedback loop
// (TuneOnce/StartTuner), and observed through Snapshot — a
// machine-readable metrics document also served over HTTP.
package serve

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/pegasus-idp/pegasus/internal/core"
	"github.com/pegasus-idp/pegasus/internal/pisa"
)

// Options configures a serving control plane.
type Options struct {
	// Name labels the deployment in reports and metrics.
	Name string
	// Cap is the combined hardware budget every admitted model must
	// co-fit, e.g. pisa.Tofino2.Pipes(2).
	Cap pisa.Capacity
	// Budget is the scheduler's worker-pool size (≤ 0 selects
	// GOMAXPROCS via pisa.NewScheduler).
	Budget int
	// Mode selects the execution mode for every engine the server
	// builds (zero value = pisa.ExecCompiled).
	Mode pisa.ExecMode
	// DrainTimeout bounds every drain the control plane performs
	// (Close, Unregister, Swap cutovers): a session that cannot drain
	// within it is reported in a structured *DrainError instead of
	// hanging the control plane forever (0 selects 5s, < 0 waits
	// forever — the historical behaviour).
	DrainTimeout time.Duration
	// WatchdogThreshold arms the scheduler's stalled-worker watchdog:
	// a worker stuck executing one task past the threshold is counted
	// (Snapshot.Stalls) and its queue re-routed to stealers (0 selects
	// 100ms, < 0 disables the watchdog).
	WatchdogThreshold time.Duration
}

// SLO declares a model's serving targets for the weight auto-tuner.
// The zero value opts the model out of tuning.
type SLO struct {
	// TargetShare is the desired fraction of the pool's busy time
	// (0 disables occupancy tuning for this model).
	TargetShare float64 `json:"target_share,omitempty"`
	// MaxWait is the per-task queue-wait target; sustained violation
	// doubles the model's weight (0 disables).
	MaxWait time.Duration `json:"max_wait_ns,omitempty"`
}

// Server is the serving control plane: one scheduler, a capacity
// ledger, and the lifecycle of every registered model.
type Server struct {
	name    string
	cap     pisa.Capacity
	mode    pisa.ExecMode
	sched   *pisa.Scheduler
	start   time.Time
	drainTO time.Duration

	mu       sync.Mutex // guards models, order, machines, tune bookkeeping
	models   map[string]*Model
	order    []string // registration order, for stable metrics
	machines map[*core.SharedExtraction]*sharedMachine

	admitted  atomic.Uint64
	rejected  atomic.Uint64
	swaps     atomic.Uint64
	rollbacks atomic.Uint64

	tunerStop chan struct{}
	tunerWG   sync.WaitGroup
	closed    bool
}

// Model is one registered model's serving handle. Submissions are
// serialized per model (the engine's single-outstanding-batch
// contract); Swap acquires the same lock, so a cutover automatically
// drains the in-flight batch before flipping versions.
type Model struct {
	srv  *Server
	name string
	slo  SLO

	// runMu serializes Submit/Run/RunPackets and Swap's cutover. cur
	// only changes with runMu held.
	runMu sync.Mutex
	// stateMu lets lock-free readers (Stats, metrics) snapshot cur and
	// base without contending with a long-running batch.
	stateMu sync.RWMutex
	cur     *version
	// base accumulates the retired versions' counters so a model's
	// stats survive swaps (EngineStats.Add).
	base pisa.EngineStats
	// shed is the model's overload policy, re-applied to every engine
	// generation (swap and canary sessions inherit it). Guarded by
	// stateMu.
	shed pisa.ShedPolicy

	// canary is the in-flight shadow version of a canary swap, mutated
	// only with runMu held (the submission path owns it).
	canary *canaryState
	// Canary observability for Snapshot readers (the canary itself is
	// runMu-guarded): live canary version id (0 = none), mirrored
	// samples and disagreements so far.
	canVersion  atomic.Int32
	canSamples  atomic.Uint64
	canDisagree atomic.Uint64

	// Degrade observability, driven by GatedModel for its classifier
	// stage: whether the gated pipeline currently bypasses this model,
	// and how many batches were served degraded.
	degraded        atomic.Bool
	degradedBatches atomic.Uint64

	// Tuner bookkeeping: counters at the previous TuneOnce, guarded by
	// srv.mu.
	tuneBusy  time.Duration
	tuneWait  time.Duration
	tuneTasks uint64

	// shared is the physical extraction machine this model subscribes
	// to (nil for private emissions). Set at Register, immutable for the
	// model's lifetime — swaps replace the subscriber engine in place.
	shared *sharedMachine
}

// version is one emitted program generation bound to a live session.
type version struct {
	id  int
	em  *core.Emitted
	eng *pisa.Engine
}

// NewServer starts a serving control plane over a fresh shared-budget
// scheduler. Close releases the pool.
func NewServer(opts Options) *Server {
	if opts.Name == "" {
		opts.Name = "serve"
	}
	if opts.DrainTimeout == 0 {
		opts.DrainTimeout = 5 * time.Second
	}
	s := &Server{
		name:     opts.Name,
		cap:      opts.Cap,
		mode:     opts.Mode,
		sched:    pisa.NewScheduler(opts.Budget),
		start:    time.Now(),
		drainTO:  opts.DrainTimeout,
		models:   map[string]*Model{},
		machines: map[*core.SharedExtraction]*sharedMachine{},
	}
	if opts.WatchdogThreshold >= 0 {
		s.sched.StartWatchdog(opts.WatchdogThreshold)
	}
	return s
}

// Name returns the deployment label.
func (s *Server) Name() string { return s.name }

// Scheduler exposes the underlying pool (stats, budget).
func (s *Server) Scheduler() *pisa.Scheduler { return s.sched }

// AdmissionError is a rejected registration or swap. A capacity
// rejection carries the structured per-dimension, per-program breakdown
// in Report; an SLO rejection (the candidate's declared TargetShare,
// summed with the incumbents', exceeds the whole pool) carries Report
// nil and the overcommit arithmetic in Reason.
type AdmissionError struct {
	Model  string
	Op     string // "register" or "swap"
	Reason string // non-capacity rejection cause (SLO overcommit)
	Report *core.BudgetError
}

func (e *AdmissionError) Error() string {
	if e.Report == nil {
		return fmt.Sprintf("serve: %s %q rejected: %s", e.Op, e.Model, e.Reason)
	}
	return fmt.Sprintf("serve: %s %q rejected: %v", e.Op, e.Model, e.Report)
}

// Unwrap exposes the core.BudgetError to errors.As (nil for SLO
// rejections).
func (e *AdmissionError) Unwrap() error {
	if e.Report == nil {
		return nil
	}
	return e.Report
}

// DrainError reports sessions that failed to quiesce within the drain
// timeout during Close, Unregister or a Swap cutover. The named
// sessions' batches are still in flight on the pool — a stalled worker
// or a wedged plan holds them — so their resources are intentionally
// leaked rather than freed out from under a running task.
type DrainError struct {
	Deployment string
	Op         string // "close", "unregister" or "swap"
	Timeout    time.Duration
	Sessions   []string // session labels (name@vN) that failed to drain
}

func (e *DrainError) Error() string {
	return fmt.Sprintf("serve: %s on %q: %d session(s) failed to drain within %v: %v",
		e.Op, e.Deployment, len(e.Sessions), e.Timeout, e.Sessions)
}

// deployment snapshots the live emissions as a core.Deployment ledger
// (caller holds s.mu).
func (s *Server) deploymentLocked() core.Deployment {
	d := core.Deployment{Name: s.name, Cap: s.cap}
	for _, name := range s.order {
		m := s.models[name]
		m.stateMu.RLock()
		d.Models = append(d.Models, m.cur.em)
		m.stateMu.RUnlock()
	}
	return d
}

// Deployment returns the live capacity ledger (a snapshot — Summary,
// Resources and Headroom work on it).
func (s *Server) Deployment() core.Deployment {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.deploymentLocked()
}

// Register admits a model into the deployment and brings it live.
//
// Admission runs FIRST: the candidate emission is validated against
// the remaining combined capacity (core.Deployment.Admit — extraction
// sharing applied) AND against the tuner's share ledger — a candidate
// whose declared SLO.TargetShare, summed with the incumbents', exceeds
// the whole pool is rejected up front (the tuner could never satisfy
// everyone; weights would just climb to the clamp ceiling). Rejection
// is an *AdmissionError before any scheduler state changes; on success
// the emission's session is registered on the shared pool (compiling
// its execution plans) and the model begins serving at the given
// weight.
func (s *Server) Register(name string, em *core.Emitted, weight int, slo SLO) (*Model, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, fmt.Errorf("serve: server %q is closed", s.name)
	}
	if _, ok := s.models[name]; ok {
		return nil, fmt.Errorf("serve: model %q already registered (use Swap to replace it)", name)
	}
	if err := s.admitShareLocked(name, slo); err != nil {
		s.rejected.Add(1)
		return nil, err
	}
	if err := s.admitLocked(name, em, nil); err != nil {
		s.rejected.Add(1)
		return nil, err
	}
	m := &Model{srv: s, name: name, slo: slo}
	if em.Shared != nil {
		// Physically shared extraction: the model becomes a pure-
		// combinational subscriber of the handle's machine (brought up
		// on first subscription); its RunPackets route through the
		// machine's fan-out.
		mach, eng, err := s.attachSharedLocked(name, em, weight)
		if err != nil {
			s.rejected.Add(1)
			return nil, err
		}
		m.shared = mach
		m.cur = &version{id: 1, em: em, eng: eng}
	} else {
		m.cur = &version{id: 1, em: em, eng: s.newEngine(em, name, 1, weight)}
	}
	s.models[name] = m
	s.order = append(s.order, name)
	s.admitted.Add(1)
	return m, nil
}

// admitShareLocked rejects a candidate SLO whose TargetShare, summed
// with every incumbent's, overcommits the pool (> 1.0 busy-time
// share). Caller holds s.mu.
func (s *Server) admitShareLocked(name string, slo SLO) error {
	if slo.TargetShare <= 0 {
		return nil
	}
	sum := slo.TargetShare
	for _, n := range s.order {
		sum += s.models[n].slo.TargetShare
	}
	// A hair of slack so exact partitions (0.5+0.5, 3×1/3) admit
	// through float rounding.
	if sum <= 1.0+1e-9 {
		return nil
	}
	return &AdmissionError{Model: name, Op: "register",
		Reason: fmt.Sprintf("SLO overcommit: declared target share %.3f raises the deployment total to %.3f (> 1.0 of pool busy time)",
			slo.TargetShare, sum)}
}

// admitLocked validates the deployment with `name` bound to em —
// replacing its live emission if the model exists, appending
// otherwise. replace is the model being swapped (nil on Register).
func (s *Server) admitLocked(name string, em *core.Emitted, replace *Model) error {
	d := core.Deployment{Name: s.name, Cap: s.cap}
	for _, n := range s.order {
		m := s.models[n]
		if m == replace {
			continue
		}
		m.stateMu.RLock()
		d.Models = append(d.Models, m.cur.em)
		m.stateMu.RUnlock()
	}
	op := "register"
	if replace != nil {
		op = "swap"
	}
	if err := d.Admit(em); err != nil {
		if be, ok := err.(*core.BudgetError); ok {
			return &AdmissionError{Model: name, Op: op, Report: be}
		}
		return fmt.Errorf("serve: %s %q rejected: %w", op, name, err)
	}
	// The new emission must own its programs: sharing a *pisa.Program
	// with a live session would alias register storage across engines.
	owned := map[*pisa.Program]string{}
	for _, n := range s.order {
		m := s.models[n]
		m.stateMu.RLock()
		for _, p := range m.cur.em.Programs() {
			owned[p] = n
		}
		m.stateMu.RUnlock()
	}
	for _, p := range em.Programs() {
		if holder, ok := owned[p]; ok {
			return fmt.Errorf("serve: %s %q rejected: emission shares program %q with live model %q (re-emit a fresh copy)",
				op, name, p.Name, holder)
		}
	}
	return nil
}

// newEngine registers the emission's session on the pool under the
// versioned label name@vN.
func (s *Server) newEngine(em *core.Emitted, name string, ver, weight int) *pisa.Engine {
	label := fmt.Sprintf("%s@v%d", name, ver)
	if em.Extract != nil {
		return em.NewPacketEngineOn(s.sched, label, weight, s.mode)
	}
	return em.NewEngineOn(s.sched, label, weight, s.mode)
}

// Model looks up a registered model by name (nil if absent).
func (s *Server) Model(name string) *Model {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.models[name]
}

// Models returns the registered models in registration order.
func (s *Server) Models() []*Model {
	s.mu.Lock()
	defer s.mu.Unlock()
	ms := make([]*Model, 0, len(s.order))
	for _, n := range s.order {
		ms = append(ms, s.models[n])
	}
	return ms
}

// lockWithTimeout acquires mu, giving up after d (d < 0 blocks
// forever). The bounded acquisition is what protects the control plane
// from a WEDGED SUBMITTER: a Ticket whose batch is stuck on a stalled
// worker holds the model's runMu inside Wait, so an unbounded Lock
// would inherit the hang no matter how short the engine drain bound
// is. The helper queues as a real waiter (TryLock polling would starve
// behind closed-loop submitters that re-acquire runMu back to back);
// on timeout it is abandoned and releases the mutex itself whenever
// the acquisition eventually completes.
func lockWithTimeout(mu *sync.Mutex, d time.Duration) bool {
	if d < 0 {
		mu.Lock()
		return true
	}
	acquired := make(chan struct{})
	abandoned := make(chan struct{})
	go func() {
		mu.Lock()
		select {
		case acquired <- struct{}{}:
		case <-abandoned:
			mu.Unlock()
		}
	}()
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-acquired:
		return true
	case <-timer.C:
		close(abandoned)
		return false
	}
}

// sessionLabel names the model's live session for drain errors.
func (m *Model) sessionLabel() string {
	m.stateMu.RLock()
	defer m.stateMu.RUnlock()
	return fmt.Sprintf("%s@v%d", m.name, m.cur.id)
}

// retire drains and closes the model's live session (and aborts any
// in-flight canary) within the server's drain timeout. Returns the
// labels of sessions that failed to quiesce — their engines are leaked
// deliberately: closing an engine under a running task would free
// buffers out from under a worker.
func (s *Server) retire(m *Model, reason string) []string {
	if !lockWithTimeout(&m.runMu, s.drainTO) {
		return []string{m.sessionLabel()}
	}
	defer m.runMu.Unlock()
	if cs := m.canary; cs != nil {
		m.abortCanary(cs, reason)
	}
	if !m.cur.eng.DrainTimeout(s.drainTO) {
		return []string{m.sessionLabel()}
	}
	m.cur.eng.Close()
	return nil
}

// Unregister retires a model: waits out its in-flight batch (bounded
// by Options.DrainTimeout), releases its session, and frees its share
// of the capacity ledger. A session that cannot drain is reported in a
// *DrainError; the model is unregistered either way.
func (s *Server) Unregister(name string) error {
	s.mu.Lock()
	m, ok := s.models[name]
	if !ok {
		s.mu.Unlock()
		return fmt.Errorf("serve: model %q not registered", name)
	}
	delete(s.models, name)
	for i, n := range s.order {
		if n == name {
			s.order = append(s.order[:i], s.order[i+1:]...)
			break
		}
	}
	s.mu.Unlock()
	if m.shared != nil {
		// Detach from the fan-out first: co-subscribers keep the shared
		// flow state (registers reset only when the last one leaves),
		// and no window reaches this model's session once retire drains
		// it.
		s.detachShared(m)
	}
	if stuck := s.retire(m, "model unregistered"); len(stuck) > 0 {
		return &DrainError{Deployment: s.name, Op: "unregister", Timeout: s.drainTO, Sessions: stuck}
	}
	return nil
}

// Close stops the tuner, retires every model, and releases the pool.
// Each model's drain is bounded by Options.DrainTimeout: sessions that
// fail to quiesce are named in the returned *DrainError, and the pool
// itself is left running in that case (its workers hold the stuck
// batches) rather than hanging Close forever. Idempotent.
func (s *Server) Close() error {
	s.StopTuner()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	models := make([]*Model, 0, len(s.order))
	for _, n := range s.order {
		models = append(models, s.models[n])
	}
	machines := make([]*sharedMachine, 0, len(s.machines))
	for _, mach := range s.machines {
		machines = append(machines, mach)
	}
	s.models = map[string]*Model{}
	s.order = nil
	s.machines = map[*core.SharedExtraction]*sharedMachine{}
	s.mu.Unlock()
	var stuck []string
	for _, m := range models {
		stuck = append(stuck, s.retire(m, "server closed")...)
	}
	if len(stuck) > 0 {
		return &DrainError{Deployment: s.name, Op: "close", Timeout: s.drainTO, Sessions: stuck}
	}
	// Every subscriber is retired, so the machines are quiescent.
	for _, mach := range machines {
		mach.eng.Close()
	}
	s.sched.Close()
	return nil
}

// Name returns the model's registration name.
func (m *Model) Name() string { return m.name }

// Version returns the live emission's generation (1 at registration,
// +1 per swap).
func (m *Model) Version() int {
	m.stateMu.RLock()
	defer m.stateMu.RUnlock()
	return m.cur.id
}

// Emitted returns the live emission.
func (m *Model) Emitted() *core.Emitted {
	m.stateMu.RLock()
	defer m.stateMu.RUnlock()
	return m.cur.em
}

// SLO returns the model's declared serving targets.
func (m *Model) SLO() SLO {
	m.srv.mu.Lock()
	defer m.srv.mu.Unlock()
	return m.slo
}

// SetSLO redeclares the model's serving targets live.
func (m *Model) SetSLO(slo SLO) {
	m.srv.mu.Lock()
	defer m.srv.mu.Unlock()
	m.slo = slo
}

// Weight returns the live session's fair-share weight.
func (m *Model) Weight() int {
	m.stateMu.RLock()
	defer m.stateMu.RUnlock()
	return m.cur.eng.Weight()
}

// SetWeight retunes the live session's fair-share weight.
func (m *Model) SetWeight(w int) {
	m.stateMu.RLock()
	defer m.stateMu.RUnlock()
	m.cur.eng.SetWeight(w)
}

// PlanSplit returns the live engine's per-packet / per-fire division
// of its program chain (see pisa.PlanSplit).
func (m *Model) PlanSplit() pisa.PlanSplit {
	m.stateMu.RLock()
	defer m.stateMu.RUnlock()
	return m.cur.eng.PlanSplit()
}

// PlanShape returns what the live engine's program chain lowered to
// (see pisa.PlanShape).
func (m *Model) PlanShape() pisa.PlanShape {
	m.stateMu.RLock()
	defer m.stateMu.RUnlock()
	return m.cur.eng.PlanShape()
}

// Stats returns the model's cumulative serving counters across every
// version it has run (retired generations included).
func (m *Model) Stats() pisa.EngineStats {
	_, _, st := m.view()
	return st
}

// view snapshots version, weight and cumulative stats under ONE lock
// acquisition, so a metrics scrape racing a swap can never observe a
// torn (version, weight) pair — the triple is consistent with a single
// instant of the model's lifecycle.
func (m *Model) view() (version, weight int, st pisa.EngineStats) {
	m.stateMu.RLock()
	defer m.stateMu.RUnlock()
	st = m.cur.eng.Stats()
	st.Add(m.base)
	st.Name = m.name
	return m.cur.id, m.cur.eng.Weight(), st
}

// SetShedPolicy installs the model's overload bounds: submissions over
// the policy are rejected up front with pisa.ErrOverloaded (SubmitCtx/
// RunCtx) instead of queueing without limit. The policy survives swaps
// — every later engine generation (swap targets, canary shadows)
// inherits it.
func (m *Model) SetShedPolicy(p pisa.ShedPolicy) {
	m.stateMu.Lock()
	m.shed = p
	m.cur.eng.SetShedPolicy(p)
	m.stateMu.Unlock()
}

// ShedPolicy returns the model's current overload bounds.
func (m *Model) ShedPolicy() pisa.ShedPolicy {
	m.stateMu.RLock()
	defer m.stateMu.RUnlock()
	return m.shed
}

// Ticket is one in-flight submission: the model's submission lock is
// held until Wait returns, preserving the single-outstanding-batch
// contract across the version swap path.
type Ticket struct {
	m    *Model
	p    *pisa.Pending
	done bool

	// Canary mirroring: the same jobs shadow-submitted to the canary
	// session, compared against the authoritative results at Wait.
	jobs []pisa.Job
	cp   *pisa.Pending
}

// Wait blocks until the batch has fully executed, releases the model
// for the next submission, and returns the results in job order. When
// a canary swap is in flight, Wait also collects the mirrored shadow
// batch, scores it against the authoritative results, and — once the
// decision window is met — promotes or rolls back the canary before
// releasing the lock.
func (t *Ticket) Wait() []pisa.Result {
	res := t.p.Wait()
	if !t.done {
		t.done = true
		if t.cp != nil {
			t.m.observeCanary(t.jobs, res, t.cp.Wait())
		}
		t.m.decideCanary()
		t.m.runMu.Unlock()
	}
	return res
}

// Err reports whether the serving session was poisoned by a plan panic
// during (or before) this batch — call it after Wait; a non-nil error
// means the results are not trustworthy and the model needs a swap.
func (t *Ticket) Err() error {
	if t.p == nil {
		return nil
	}
	return t.p.Err()
}

// Submit enqueues a batch on the model's live version without waiting
// for it. The caller MUST call Wait on the returned ticket — the model
// stays locked (blocking further submissions and swaps) until then. A
// driver keeps several models busy by submitting to each and then
// collecting the tickets.
func (m *Model) Submit(jobs []pisa.Job) *Ticket {
	m.runMu.Lock()
	t := &Ticket{m: m, p: m.cur.eng.SubmitBatch(jobs)}
	m.mirrorCanary(t, jobs)
	return t
}

// SubmitCtx is Submit behind the model's shed policy and the context
// deadline: an over-bound or deadline-infeasible batch is rejected up
// front with *pisa.ErrOverloaded (reject-newest — admitted work keeps
// its place), a poisoned session with *pisa.ErrPoisoned. On error the
// model is NOT left locked and no ticket exists.
func (m *Model) SubmitCtx(ctx context.Context, jobs []pisa.Job) (*Ticket, error) {
	m.runMu.Lock()
	p, err := m.cur.eng.SubmitBatchCtx(ctx, jobs)
	if err != nil {
		m.runMu.Unlock()
		return nil, err
	}
	t := &Ticket{m: m, p: p}
	m.mirrorCanary(t, jobs)
	return t, nil
}

// Run pushes a batch through the live version and waits for the
// results.
func (m *Model) Run(jobs []pisa.Job) []pisa.Result {
	return m.Submit(jobs).Wait()
}

// RunCtx is Run behind the model's shed policy (see SubmitCtx).
func (m *Model) RunCtx(ctx context.Context, jobs []pisa.Job) ([]pisa.Result, error) {
	t, err := m.SubmitCtx(ctx, jobs)
	if err != nil {
		return nil, err
	}
	res := t.Wait()
	return res, t.Err()
}

// RunPackets replays raw packets through the live version's extraction
// machine (registration must have carried an extraction emission or a
// shared-extraction binding). A subscriber of a physically shared
// machine runs its fan-out — every co-subscriber classifies the fired
// windows — and receives its own row, holding only its own runMu (which
// orders the run against its swap cutover) and then the fan-out's lock.
// Canary swaps do not mirror the packet path: extraction state is
// per-session and a shadow replay would fire on different window
// boundaries — canary scoring applies to the batch path only.
func (m *Model) RunPackets(pkts []pisa.PacketIn) []pisa.PacketResult {
	m.runMu.Lock()
	defer m.runMu.Unlock()
	if m.shared == nil {
		return m.cur.eng.RunPackets(pkts)
	}
	engs, res := m.shared.fan.RunPacketsAligned(pkts)
	for i, e := range engs {
		if e == m.cur.eng {
			return res[i]
		}
	}
	return nil
}
