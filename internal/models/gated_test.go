package models

import (
	"math/rand"
	"testing"

	"github.com/pegasus-idp/pegasus/internal/netsim"
	"github.com/pegasus-idp/pegasus/internal/pisa"
)

// buildGated trains and emits a small §7.4 deployment whose threshold
// sits at the median benign score, so both gate branches are exercised.
func buildGated(t *testing.T) (*GatedPipeline, []netsim.Flow) {
	t.Helper()
	train, test, k := smallDataset(t)
	rng := rand.New(rand.NewSource(71))

	ae := NewAutoEncoder(nil, rng)
	ae.Train(train, TrainOpts{Epochs: 2, Seed: 71})
	if err := ae.Compile(train); err != nil {
		t.Fatal(err)
	}
	cls := NewCNNB(k, rng)
	cls.Train(train, TrainOpts{Epochs: 2, Seed: 71})
	if err := cls.Compile(train); err != nil {
		t.Fatal(err)
	}
	thr, err := CalibrateGate(ae, test, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewGatedPipeline(ae, cls, thr)
	if err != nil {
		t.Fatal(err)
	}
	const flowTable = 1 << 16
	if err := g.Emit(flowTable, pisa.Tofino2.Pipes(2)); err != nil {
		t.Fatal(err)
	}
	return g, packetFlows(t, test, flowTable)
}

// TestGatedPipelineMatchesHostSequential is the §7.4 acceptance test:
// raw merged traces through the AutoEncoder-gated classifier — one
// shared seq machine whose shard tasks run the gate and the classifier
// — produce exactly the verdicts and labels of host-side window
// extraction followed by sequentially running the two emitted programs,
// in both execution modes.
func TestGatedPipelineMatchesHostSequential(t *testing.T) {
	g, flows := buildGated(t)
	stream := netsim.Merge(flows)
	want, err := g.HostSequential(stream)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("no windows fired")
	}
	nAnom := 0
	for _, w := range want {
		if w.Anomalous {
			nAnom++
		}
	}
	if nAnom == 0 || nAnom == len(want) {
		t.Fatalf("gate exercised one branch only (%d/%d anomalous) — threshold calibration broken", nAnom, len(want))
	}

	for _, mode := range []pisa.ExecMode{pisa.ExecInterpret, pisa.ExecCompiled} {
		sched := pisa.NewScheduler(4)
		got, err := g.Run(stream, sched, mode)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("[%v] %d gated results, host expects %d", mode, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("[%v] window %d: deployment %+v, host sequential %+v", mode, i, got[i], want[i])
			}
		}
		sched.Close()
	}
}

// TestGatedDeploymentFitsCombinedCapacity checks the §7.4 budget claim:
// the deployment — one physical seq machine with the gate and the
// classifier as its two subscribers — validates against one Tofino
// ingress+egress capacity report.
func TestGatedDeploymentFitsCombinedCapacity(t *testing.T) {
	g, _ := buildGated(t)
	dep := g.DepShared
	if err := dep.Validate(); err != nil {
		t.Fatalf("combined deployment over budget: %v", err)
	}
	if res := dep.Resources(); res.Stages > dep.Cap.Stages {
		t.Fatalf("combined %d stages exceed %d", res.Stages, dep.Cap.Stages)
	}
	ms := dep.Machines()
	if len(ms) != 1 || !ms[0].Physical || len(ms[0].Subscribers) != 2 {
		t.Fatalf("deployment machines %+v, want one physical machine with two subscribers", ms)
	}
	t.Logf("deployment report:\n%s", dep.Summary())
}

// TestGateThresholdMonotone pins the gate's score semantics: emitted
// windows score anomalous exactly when their host-side fixed-point MAE
// reaches the threshold (the integer conversion inverts scoreInts'
// normalisation).
func TestGateThresholdMonotone(t *testing.T) {
	g, flows := buildGated(t)
	stream := netsim.Merge(flows)
	res, err := g.HostSequential(stream)
	if err != nil {
		t.Fatal(err)
	}
	thrInt, err := g.AE.GateThreshold(g.Threshold)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if r.Anomalous != (r.Score >= thrInt) {
			t.Fatalf("window %d: anom=%v but score %d vs threshold %d", i, r.Anomalous, r.Score, thrInt)
		}
		if r.Anomalous && r.Class != -1 {
			t.Fatalf("window %d: anomalous window was classified (class %d)", i, r.Class)
		}
		if !r.Anomalous && r.Class < 0 {
			t.Fatalf("window %d: benign window missing classification", i)
		}
	}
}
