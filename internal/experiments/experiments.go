// Package experiments regenerates every table and figure of the paper's
// evaluation (§7) on the synthetic substrate: Table 2 (headline), Table
// 5 (accuracy), Table 6 (hardware resources), Figure 7 (per-flow
// storage), Figure 8 (ROC/AUC), and Figure 9 (fuzzy vs full precision,
// throughput). Each experiment prints the same rows/series the paper
// reports. Performance of the system itself is measured by the benchmark
// in bench/, not here.
package experiments

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"time"

	"github.com/pegasus-idp/pegasus/internal/baselines/bos"
	"github.com/pegasus-idp/pegasus/internal/baselines/leo"
	"github.com/pegasus-idp/pegasus/internal/baselines/n3ic"
	"github.com/pegasus-idp/pegasus/internal/core"
	"github.com/pegasus-idp/pegasus/internal/datasets"
	"github.com/pegasus-idp/pegasus/internal/metrics"
	"github.com/pegasus-idp/pegasus/internal/models"
	"github.com/pegasus-idp/pegasus/internal/netsim"
	"github.com/pegasus-idp/pegasus/internal/pisa"
	"github.com/pegasus-idp/pegasus/internal/tensor"
)

// Config scales the experiment suite.
type Config struct {
	// FlowsPerClass controls dataset size (default 60; the quick preset
	// used by benchmarks).
	FlowsPerClass int
	// Epochs scales every model's training budget (1.0 = default).
	Epochs float64
	Seed   int64
}

func (c *Config) defaults() {
	if c.FlowsPerClass == 0 {
		c.FlowsPerClass = 60
	}
	if c.Epochs == 0 {
		c.Epochs = 1
	}
}

func (c *Config) ep(base int) int {
	n := int(float64(base) * c.Epochs)
	if n < 2 {
		n = 2
	}
	return n
}

// bundle holds everything trained on one dataset.
type bundle struct {
	ds          *datasets.Dataset
	train, test []netsim.Flow
	k           int
	leo         *leo.Model
	n3ic        *n3ic.Model
	bosM        *bos.Model
	mlp         *models.Feedforward
	cnnb        *models.Feedforward
	cnnm        *models.Feedforward
	rnnb        *models.RNNB
	cnnl        *models.CNNL
	ae          *models.AutoEncoder
}

// Suite trains the full model zoo once per dataset and serves every
// experiment from the shared bundles.
type Suite struct {
	Cfg     Config
	bundles map[string]*bundle
}

// NewSuite prepares an empty suite.
func NewSuite(cfg Config) *Suite {
	cfg.defaults()
	return &Suite{Cfg: cfg, bundles: map[string]*bundle{}}
}

// Bundle trains (once) and returns the bundle for a dataset.
func (s *Suite) Bundle(name string) (*bundle, error) {
	if b, ok := s.bundles[name]; ok {
		return b, nil
	}
	ds, ok := datasets.ByName(name, datasets.Config{
		FlowsPerClass: s.Cfg.FlowsPerClass, PacketsPerFlow: 28, Seed: s.Cfg.Seed + 101,
	})
	if !ok {
		return nil, fmt.Errorf("experiments: unknown dataset %q", name)
	}
	train, _, test := ds.Split(s.Cfg.Seed + 7)
	b := &bundle{ds: ds, train: train, test: test, k: ds.NumClasses()}
	rng := rand.New(rand.NewSource(s.Cfg.Seed + 13))
	c := &s.Cfg

	b.leo = leo.New(b.k, 256, rng)
	if err := b.leo.Train(train); err != nil {
		return nil, err
	}
	b.n3ic = n3ic.New(b.k, rng)
	b.n3ic.Train(train, c.ep(60), s.Cfg.Seed)
	b.bosM = bos.New(b.k, rng)
	b.bosM.Train(train, c.ep(60), s.Cfg.Seed)
	b.bosM.Compile()

	b.mlp = models.NewMLPB(b.k, rng)
	b.mlp.Train(train, models.TrainOpts{Epochs: c.ep(60), Seed: s.Cfg.Seed})
	if err := b.mlp.Compile(train); err != nil {
		return nil, err
	}
	b.cnnb = models.NewCNNB(b.k, rng)
	b.cnnb.Train(train, models.TrainOpts{Epochs: c.ep(80), Seed: s.Cfg.Seed})
	if err := b.cnnb.Compile(train); err != nil {
		return nil, err
	}
	b.cnnm = models.NewCNNM(b.k, rng)
	b.cnnm.Train(train, models.TrainOpts{Epochs: c.ep(60), Seed: s.Cfg.Seed})
	if err := b.cnnm.Compile(train); err != nil {
		return nil, err
	}
	if _, err := b.cnnm.Refine(train, core.RefineConfig{Epochs: 6, LR: 0.05}); err != nil {
		return nil, err
	}
	b.rnnb = models.NewRNNB(b.k, rng)
	b.rnnb.Train(train, models.TrainOpts{Epochs: c.ep(60), LR: 0.02, Seed: s.Cfg.Seed})
	if err := b.rnnb.Compile(train); err != nil {
		return nil, err
	}
	b.cnnl = models.NewCNNL(b.k, true, 4, rng)
	b.cnnl.Train(train, models.TrainOpts{Epochs: c.ep(10), LR: 0.01, Seed: s.Cfg.Seed})
	if err := b.cnnl.Compile(train, 2000); err != nil {
		return nil, err
	}
	b.cnnl.Refine(train, 4, 0.05)

	b.ae = models.NewAutoEncoder(b.rnnb.Emb, rng)
	b.ae.Train(train, models.TrainOpts{Epochs: c.ep(60), LR: 0.005, Seed: s.Cfg.Seed})
	if err := b.ae.Compile(train); err != nil {
		return nil, err
	}
	s.bundles[name] = b
	return b, nil
}

// Row is one Table 5 line for one dataset.
type Row struct {
	Method    string
	InputBits int
	ModelKb   float64
	Reports   map[string]metrics.Report
}

// Table5 regenerates the accuracy comparison across all methods and
// datasets.
func (s *Suite) Table5(w io.Writer) error {
	rows := []Row{}
	order := []string{"Leo", "N3IC", "MLP-B", "BoS", "RNN-B", "CNN-B", "CNN-M", "CNN-L"}
	for _, m := range order {
		rows = append(rows, Row{Method: m, Reports: map[string]metrics.Report{}})
	}
	for _, dsName := range datasets.Names {
		b, err := s.Bundle(dsName)
		if err != nil {
			return err
		}
		evals := map[string]func() (metrics.Report, error){
			"Leo":   func() (metrics.Report, error) { return b.leo.Evaluate(b.test, b.k) },
			"N3IC":  func() (metrics.Report, error) { return b.n3ic.Evaluate(b.test, b.k) },
			"BoS":   func() (metrics.Report, error) { return b.bosM.Evaluate(b.test, b.k) },
			"MLP-B": func() (metrics.Report, error) { return b.mlp.EvalPegasus(b.test, b.k) },
			"RNN-B": func() (metrics.Report, error) { return b.rnnb.EvalPegasus(b.test, b.k) },
			"CNN-B": func() (metrics.Report, error) { return b.cnnb.EvalPegasus(b.test, b.k) },
			"CNN-M": func() (metrics.Report, error) { return b.cnnm.EvalPegasus(b.test, b.k) },
			"CNN-L": func() (metrics.Report, error) { return b.cnnl.EvalPegasus(b.test, b.k) },
		}
		for i := range rows {
			rep, err := evals[rows[i].Method]()
			if err != nil {
				return err
			}
			rows[i].Reports[dsName] = rep
		}
	}
	// Metadata columns.
	meta := map[string][2]float64{ // input bits, model Kb
		"Leo":   {128, 0},
		"N3IC":  {128, kb(mustBundle(s).n3ic.ModelSizeBits())},
		"MLP-B": {128, kb(mustBundle(s).mlp.ModelSizeBits())},
		"BoS":   {18, kb(mustBundle(s).bosM.ModelSizeBits())},
		"RNN-B": {128, kb(mustBundle(s).rnnb.ModelSizeBits())},
		"CNN-B": {128, kb(mustBundle(s).cnnb.ModelSizeBits())},
		"CNN-M": {128, kb(mustBundle(s).cnnm.ModelSizeBits())},
		"CNN-L": {3840, kb(mustBundle(s).cnnl.ModelSizeBits())},
	}
	fmt.Fprintf(w, "Table 5: classification accuracy (PR/RC/F1 per dataset)\n")
	fmt.Fprintf(w, "%-7s %9s %9s", "Method", "Input(b)", "Size(Kb)")
	for _, d := range datasets.Names {
		fmt.Fprintf(w, " | %-23s", d)
	}
	fmt.Fprintln(w)
	for _, r := range rows {
		m := meta[r.Method]
		fmt.Fprintf(w, "%-7s %9.0f %9.1f", r.Method, m[0], m[1])
		for _, d := range datasets.Names {
			rep := r.Reports[d]
			fmt.Fprintf(w, " | %.4f %.4f %.4f", rep.Precision, rep.Recall, rep.F1)
		}
		fmt.Fprintln(w)
	}
	return nil
}

func kb(bits int) float64 { return float64(bits) / 1024 }

// mustBundle returns any already-trained bundle (Table5 metadata is
// dataset independent).
func mustBundle(s *Suite) *bundle {
	for _, b := range s.bundles {
		return b
	}
	panic("experiments: no bundle trained")
}

// Table2 derives the headline comparison (average F1 improvement, model
// size and input-scale ratios of CNN-L vs each prior work).
func (s *Suite) Table2(w io.Writer) error {
	if err := s.Table5(io.Discard); err != nil {
		return err
	}
	avg := func(name string) float64 {
		t := 0.0
		for _, d := range datasets.Names {
			b := s.bundles[d]
			var rep metrics.Report
			switch name {
			case "Leo":
				rep, _ = b.leo.Evaluate(b.test, b.k)
			case "N3IC":
				rep, _ = b.n3ic.Evaluate(b.test, b.k)
			case "BoS":
				rep, _ = b.bosM.Evaluate(b.test, b.k)
			case "CNN-L":
				rep, _ = b.cnnl.EvalPegasus(b.test, b.k)
			}
			t += rep.F1
		}
		return t / float64(len(datasets.Names))
	}
	b := mustBundle(s)
	cl := avg("CNN-L")
	fmt.Fprintf(w, "Table 2: Pegasus (CNN-L) vs prior works\n")
	fmt.Fprintf(w, "%-18s %10s %10s %10s\n", "Prior work", "Acc. ↑", "Size ×", "Input ×")
	fmt.Fprintf(w, "%-18s %9.1f%% %10s %10s\n", "Leo (tree)", 100*(cl-avg("Leo")), "-", "-")
	fmt.Fprintf(w, "%-18s %9.1f%% %9.1fx %9.1fx\n", "N3IC (bin MLP)",
		100*(cl-avg("N3IC")),
		float64(b.cnnl.ModelSizeBits())/float64(b.n3ic.ModelSizeBits()),
		float64(b.cnnl.InputScaleBits())/float64(b.n3ic.InputScaleBits()))
	fmt.Fprintf(w, "%-18s %9.1f%% %9.1fx %9.1fx\n", "BoS (bin RNN)",
		100*(cl-avg("BoS")),
		float64(b.cnnl.ModelSizeBits())/float64(b.bosM.ModelSizeBits()),
		float64(b.cnnl.InputScaleBits())/float64(b.bosM.InputScaleBits()))
	return nil
}

// Table6 regenerates the hardware resource comparison.
func (s *Suite) Table6(w io.Writer) error {
	b, err := s.Bundle("PeerRush")
	if err != nil {
		return err
	}
	const flows = 1 << 16
	type rowT struct {
		name string
		bits int
		res  pisa.Resources
		cap  pisa.Capacity // the emitting program's own capacity
	}
	var rows []rowT
	if prog, err := b.leo.Emit(flows); err == nil {
		rows = append(rows, rowT{"Leo", b.leo.FlowStateBits(), prog.Resources(), prog.Cap})
	} else {
		return fmt.Errorf("leo emit: %v", err)
	}
	// BoS: exhaustive tables, SRAM only (no TCAM). There is no emitted
	// program, so utilisation is reported against the default target.
	bosSRAM := b.bosM.TableEntries() * (11 + 8) // key+state bits per entry
	rows = append(rows, rowT{"BoS", b.bosM.FlowStateBits(),
		pisa.Resources{SRAMBits: bosSRAM, RegBits: b.bosM.FlowStateBits() * flows, PeakBusBits: 8},
		core.DefaultTarget().Capacity()})
	emit := func(name string, em *core.Emitted, errE error, bits int) error {
		if errE != nil {
			return fmt.Errorf("%s emit: %v", name, errE)
		}
		rows = append(rows, rowT{name, bits, em.Resources(), em.Capacity()})
		return nil
	}
	em, errE := b.mlp.Emit(flows)
	if err := emit("MLP-B", em, errE, b.mlp.FlowStateBits); err != nil {
		return err
	}
	em, errE = b.rnnb.Emit(flows)
	if err := emit("RNN-B", em, errE, b.rnnb.FlowStateBits()); err != nil {
		return err
	}
	em, errE = b.cnnb.Emit(flows)
	if err := emit("CNN-B", em, errE, b.cnnb.FlowStateBits); err != nil {
		return err
	}
	em, errE = b.cnnm.Emit(flows)
	if err := emit("CNN-M", em, errE, b.cnnm.FlowStateBits); err != nil {
		return err
	}
	em, errE = b.cnnl.Emit(flows)
	if err := emit("CNN-L", em, errE, b.cnnl.FlowStateBits()); err != nil {
		return err
	}
	em, errE = b.ae.Emit(flows)
	if err := emit("AutoEncoder", em, errE, b.ae.FlowStateBits()); err != nil {
		return err
	}
	fmt.Fprintf(w, "Table 6: hardware resource utilisation (%d concurrent flows)\n", flows)
	fmt.Fprintf(w, "%-12s %14s %8s %8s %8s\n", "Model", "Stateful b/flow", "SRAM%", "TCAM%", "Bus%")
	for _, r := range rows {
		fmt.Fprintf(w, "%-12s %14d %7.2f%% %7.2f%% %7.2f%%\n", r.name, r.bits,
			100*r.res.SRAMFrac(r.cap), 100*r.res.TCAMFrac(r.cap),
			100*r.res.BusFrac(r.cap))
	}
	return nil
}

// Figure7 regenerates the per-flow storage sweep: the three CNN-L
// variants' F1 per dataset plus the SRAM needed for 1M flows.
func (s *Suite) Figure7(w io.Writer) error {
	variants := []struct {
		useIPD  bool
		idxBits int
	}{
		{false, 4}, // 28 bits/flow
		{true, 4},  // 44 bits/flow
		{true, 8},  // 72 bits/flow
	}
	fmt.Fprintf(w, "Figure 7: per-flow storage vs accuracy (1M flows)\n")
	fmt.Fprintf(w, "%-10s %10s", "bits/flow", "SRAM(1M)")
	for _, d := range datasets.Names {
		fmt.Fprintf(w, " %10s", d)
	}
	fmt.Fprintln(w)
	for _, v := range variants {
		var bitsPerFlow int
		var f1s []float64
		for _, dsName := range datasets.Names {
			b, err := s.Bundle(dsName)
			if err != nil {
				return err
			}
			rng := rand.New(rand.NewSource(s.Cfg.Seed + 31))
			m := models.NewCNNL(b.k, v.useIPD, v.idxBits, rng)
			m.Train(b.train, models.TrainOpts{Epochs: s.Cfg.ep(10), LR: 0.01, Seed: s.Cfg.Seed})
			if err := m.Compile(b.train, 2000); err != nil {
				return err
			}
			m.Refine(b.train, 4, 0.05)
			rep, err := m.EvalPegasus(b.test, b.k)
			if err != nil {
				return err
			}
			f1s = append(f1s, rep.F1)
			bitsPerFlow = m.FlowStateBits()
		}
		// Register bytes for 1M flows: bits padded to 8-bit registers,
		// reported against the default emission target's SRAM budget.
		cap := core.DefaultTarget().Capacity()
		sramPct := 100 * float64(((bitsPerFlow+7)/8)*8*1_000_000) /
			float64(cap.SRAMBitsPerStage*cap.Stages)
		fmt.Fprintf(w, "%-10d %9.1f%%", bitsPerFlow, sramPct)
		for _, f1 := range f1s {
			fmt.Fprintf(w, " %10.4f", f1)
		}
		fmt.Fprintln(w)
	}
	return nil
}

// Figure8 regenerates the ROC/AUC matrix: AutoEncoder vs six attack
// families across the three datasets.
func (s *Suite) Figure8(w io.Writer) error {
	fmt.Fprintf(w, "Figure 8: AutoEncoder AUC per attack family\n")
	fmt.Fprintf(w, "%-8s", "Attack")
	for _, d := range datasets.Names {
		fmt.Fprintf(w, " %10s", d)
	}
	fmt.Fprintln(w)
	for _, atk := range datasets.AllAttacks {
		fmt.Fprintf(w, "%-8s", atk)
		for _, dsName := range datasets.Names {
			b, err := s.Bundle(dsName)
			if err != nil {
				return err
			}
			mixed := datasets.MixAttack(b.test, atk, s.Cfg.Seed+41)
			scores, anom, err := b.ae.ScorePegasus(mixed)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, " %10.4f", metrics.AUCFromScores(scores, anom))
		}
		fmt.Fprintln(w)
	}
	return nil
}

// Figure9Accuracy compares Pegasus (fuzzy fixed-point) against the
// full-precision CPU/GPU implementation for every model and dataset.
func (s *Suite) Figure9Accuracy(w io.Writer) error {
	fmt.Fprintf(w, "Figure 9a-c: Pegasus vs full-precision macro-F1\n")
	fmt.Fprintf(w, "%-8s %-10s %10s %10s %8s\n", "Dataset", "Model", "Pegasus", "CPU/GPU", "Δ")
	for _, dsName := range datasets.Names {
		b, err := s.Bundle(dsName)
		if err != nil {
			return err
		}
		type pair struct {
			name string
			peg  func() (metrics.Report, error)
			full func() (metrics.Report, error)
		}
		pairs := []pair{
			{"MLP-B", func() (metrics.Report, error) { return b.mlp.EvalPegasus(b.test, b.k) },
				func() (metrics.Report, error) { return b.mlp.EvalFull(b.test, b.k) }},
			{"RNN-B", func() (metrics.Report, error) { return b.rnnb.EvalPegasus(b.test, b.k) },
				func() (metrics.Report, error) { return b.rnnb.EvalFull(b.test, b.k) }},
			{"CNN-B", func() (metrics.Report, error) { return b.cnnb.EvalPegasus(b.test, b.k) },
				func() (metrics.Report, error) { return b.cnnb.EvalFull(b.test, b.k) }},
			{"CNN-M", func() (metrics.Report, error) { return b.cnnm.EvalPegasus(b.test, b.k) },
				func() (metrics.Report, error) { return b.cnnm.EvalFull(b.test, b.k) }},
			{"CNN-L", func() (metrics.Report, error) { return b.cnnl.EvalPegasus(b.test, b.k) },
				func() (metrics.Report, error) { return b.cnnl.EvalFull(b.test, b.k) }},
		}
		for _, p := range pairs {
			pr, err := p.peg()
			if err != nil {
				return err
			}
			fr, err := p.full()
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "%-8s %-10s %10.4f %10.4f %+7.4f\n", dsName, p.name, pr.F1, fr.F1, pr.F1-fr.F1)
		}
	}
	return nil
}

// cpuWindow is how long Figure9Throughput times the CPU baseline.
const cpuWindow = 300 * time.Millisecond

// Figure9Throughput compares inference throughput: the simulated switch
// at line rate versus measured CPU full-precision inference and a
// modelled multi-GPU deployment (no GPU here: the measured CPU figure
// times the factor below).
func (s *Suite) Figure9Throughput(w io.Writer) error {
	b, err := s.Bundle("PeerRush")
	if err != nil {
		return err
	}
	xs, _ := models.ExtractSeq(b.test)
	mat := tensor.New(len(xs), models.Window*2)
	for i, x := range xs {
		copy(mat.Row(i), x)
	}
	mat.Scale(1.0 / 32)
	// Measure single-thread CPU samples/s on CNN-B full precision.
	start := time.Now()
	iters := 0
	for time.Since(start) < cpuWindow {
		b.cnnb.Net.Predict(mat)
		iters++
	}
	cpu1 := float64(iters*mat.R) / time.Since(start).Seconds()
	cores := float64(runtime.NumCPU())
	cpu := cpu1 * cores // multi-threaded upper bound (paper pre-loads all cores)
	// GPU model: four V100s at a documented batched-speedup factor over
	// the full CPU socket (survey-calibrated 6×/GPU for small MLP/CNN
	// inference).
	gpu := cpu * 6 * 4
	sw := pisa.LineRatePPS

	fmt.Fprintf(w, "Figure 9d: throughput (samples/s)\n")
	fmt.Fprintf(w, "%-22s %14.3g\n", "Pegasus (switch)", sw)
	fmt.Fprintf(w, "%-22s %14.3g (modelled: %d cores × 24)\n", "GPU (4x, modelled)", gpu, runtime.NumCPU())
	fmt.Fprintf(w, "%-22s %14.3g (measured, %d cores)\n", "CPU", cpu, runtime.NumCPU())
	fmt.Fprintf(w, "switch/CPU = %.0fx   switch/GPU = %.0fx\n", sw/cpu, sw/gpu)
	return nil
}

// Names lists the runnable experiments: one per table or figure of the
// paper's evaluation.
var Names = []string{"table2", "table5", "table6", "fig7", "fig8", "fig9acc", "fig9thr"}

// ErrUnknown is wrapped by Run's error for a name that is not in Names.
var ErrUnknown = errors.New("unknown experiment")

// Run executes one experiment by name ("all" runs everything).
func (s *Suite) Run(name string, w io.Writer) error {
	switch name {
	case "table2":
		return s.Table2(w)
	case "table5":
		return s.Table5(w)
	case "table6":
		return s.Table6(w)
	case "fig7":
		return s.Figure7(w)
	case "fig8":
		return s.Figure8(w)
	case "fig9acc":
		return s.Figure9Accuracy(w)
	case "fig9thr":
		return s.Figure9Throughput(w)
	case "all":
		for _, n := range Names {
			if err := s.Run(n, w); err != nil {
				return fmt.Errorf("%s: %w", n, err)
			}
			fmt.Fprintln(w)
		}
		return nil
	}
	return fmt.Errorf("experiments: %w %q (have %v)", ErrUnknown, name, Names)
}
