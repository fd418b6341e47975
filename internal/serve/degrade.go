package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"github.com/pegasus-idp/pegasus/internal/core"
	"github.com/pegasus-idp/pegasus/internal/pisa"
)

// DegradePolicy tunes graceful degradation for a gated pipeline: under
// sustained overload of the expensive classifier stage the pipeline
// stops forwarding to it and serves the cheap gate verdict alone,
// re-probing the classifier until it recovers. Streak hysteresis keeps
// the mode from flapping on a single shed.
type DegradePolicy struct {
	// Shed is the overload bound installed on the classifier stage at
	// registration — what "overload" means for this pipeline. The zero
	// value installs no bound (the pipeline then never degrades).
	Shed pisa.ShedPolicy
	// EnterStreak is the number of CONSECUTIVE shed classifier batches
	// that flips the pipeline into degraded mode (default 3).
	EnterStreak int
	// ExitStreak is the number of consecutive healthy probe batches
	// that restores full service (default 2).
	ExitStreak int
	// ProbeEvery, in degraded mode, forwards every Nth batch to the
	// classifier as a recovery probe; the rest bypass it outright
	// without touching the pool (default 4).
	ProbeEvery int
}

func (p DegradePolicy) withDefaults() DegradePolicy {
	if p.EnterStreak <= 0 {
		p.EnterStreak = 3
	}
	if p.ExitStreak <= 0 {
		p.ExitStreak = 2
	}
	if p.ProbeEvery <= 0 {
		p.ProbeEvery = 4
	}
	return p
}

// GatedVerdict is one job's verdict from a gated pipeline. Class is -1
// when the window never reached the classifier: gate-flagged anomalies
// always, and benign windows while the pipeline is degraded — the gate
// verdict (Anomalous, Score) is still served.
type GatedVerdict struct {
	Anomalous bool
	Score     int32
	Class     int
}

// GatedModel is the serve-level handle of a two-stage gated deployment
// (the §7.4 AutoEncoder-gate + classifier pair): a cheap gate model
// screens every window and a classifier labels the windows the gate
// passes. Unlike models.GatedPipeline — a replay harness in which both
// programs subscribe to one shared extraction machine and every window
// reaches both — a GatedModel lives inside a Server: both stages are
// admitted, metered, swappable and tunable like any other model, the
// gate's window output is forwarded to the classifier as window jobs,
// and that forwarding edge carries the degrade policy.
type GatedModel struct {
	gate *Model
	cls  *Model
	pol  DegradePolicy

	mu            sync.Mutex // streak state
	degradedNow   bool
	enterStreak   int
	healthyStreak int
	probeTick     int
}

// RegisterGated admits a gated pipeline as two co-resident models,
// name-gate and name-cls, and installs the degrade policy's shed bound
// on the classifier stage. weight and slo apply to the gate (the
// line-rate stage); the classifier serves at the same weight with no
// SLO of its own.
func (s *Server) RegisterGated(name string, gateEm, clsEm *core.Emitted, weight int, slo SLO, pol DegradePolicy) (*GatedModel, error) {
	gate, err := s.Register(name+"-gate", gateEm, weight, slo)
	if err != nil {
		return nil, err
	}
	cls, err := s.Register(name+"-cls", clsEm, weight, SLO{})
	if err != nil {
		// Roll the gate back out so a half-registered pipeline never
		// serves.
		_ = s.Unregister(name + "-gate")
		return nil, err
	}
	cls.SetShedPolicy(pol.Shed)
	return &GatedModel{gate: gate, cls: cls, pol: pol.withDefaults()}, nil
}

// Gate returns the gate stage's model handle.
func (g *GatedModel) Gate() *Model { return g.gate }

// Classifier returns the classifier stage's model handle.
func (g *GatedModel) Classifier() *Model { return g.cls }

// Degraded reports whether the pipeline currently bypasses the
// classifier.
func (g *GatedModel) Degraded() bool { return g.cls.degraded.Load() }

// Run pushes a batch of windows through the gated pipeline: the gate
// screens every job, and benign windows are forwarded to the
// classifier — unless the classifier is overloaded (its shed policy
// rejects the forward) or the pipeline is degraded, in which case the
// gate verdict is served alone (Class -1) and the batch is counted in
// the classifier's DegradedBatches. A gate whose emission carries the
// window in its outputs (the gated-AE [anom, score, window...] shape)
// forwards that window; otherwise the original inputs are forwarded.
//
// The returned error is a gate-stage failure (shed, deadline, poison);
// classifier overload is NOT an error — degrading to the gate verdict
// is the designed behaviour.
func (g *GatedModel) Run(ctx context.Context, jobs []pisa.Job) ([]GatedVerdict, error) {
	t, err := g.gate.SubmitCtx(ctx, jobs)
	if err != nil {
		return nil, err
	}
	gres := t.Wait()
	if err := t.Err(); err != nil {
		return nil, err
	}

	out := make([]GatedVerdict, len(gres))
	var fwd []pisa.Job
	var fwdAt []int
	for i, r := range gres {
		out[i] = GatedVerdict{Anomalous: r.Class != 0, Class: -1}
		if len(r.Outs) > 1 {
			out[i].Score = r.Outs[1]
		} else if len(r.Outs) > 0 {
			out[i].Score = r.Outs[0]
		}
		if out[i].Anomalous {
			continue
		}
		fwdAt = append(fwdAt, i)
		j := pisa.Job{Hash: jobs[i].Hash, In: jobs[i].In}
		if len(r.Outs) > 2 {
			// r.Outs aliases the gate engine's reused buffer; detach the
			// window before the classifier batch runs.
			j.In = append([]int32(nil), r.Outs[2:]...)
		}
		fwd = append(fwd, j)
	}
	if len(fwd) == 0 {
		return out, nil
	}

	// Degraded mode bypasses the classifier outright except for
	// periodic recovery probes.
	g.mu.Lock()
	attempt := true
	if g.degradedNow {
		g.probeTick++
		attempt = g.probeTick%g.pol.ProbeEvery == 0
	}
	g.mu.Unlock()
	if !attempt {
		g.cls.degradedBatches.Add(1)
		return out, nil
	}

	res, err := g.cls.RunCtx(ctx, fwd)
	if err != nil {
		var ov *pisa.ErrOverloaded
		if errors.As(err, &ov) || errors.Is(err, context.DeadlineExceeded) {
			// Overload: serve the gate verdict alone and advance the
			// degrade hysteresis.
			g.cls.degradedBatches.Add(1)
			g.noteOverload()
			return out, nil
		}
		return nil, fmt.Errorf("serve: gated %q classifier stage: %w", g.cls.name, err)
	}
	for i, r := range res {
		out[fwdAt[i]].Class = r.Class
	}
	g.noteHealthy()
	return out, nil
}

// noteOverload advances the enter hysteresis after a shed classifier
// batch.
func (g *GatedModel) noteOverload() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.healthyStreak = 0
	g.enterStreak++
	if !g.degradedNow && g.enterStreak >= g.pol.EnterStreak {
		g.degradedNow = true
		g.probeTick = 0
		g.cls.degraded.Store(true)
	}
}

// noteHealthy advances the exit hysteresis after a served classifier
// batch.
func (g *GatedModel) noteHealthy() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.enterStreak = 0
	if g.degradedNow {
		g.healthyStreak++
		if g.healthyStreak >= g.pol.ExitStreak {
			g.degradedNow = false
			g.cls.degraded.Store(false)
		}
	}
}
