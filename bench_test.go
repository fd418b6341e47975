// Benchmarks regenerating every table and figure of the paper's
// evaluation (one benchmark per artefact) plus micro-benchmarks of
// single-inference hot paths: compiled fixed-point inference, one PHV
// pass through the simulated switch pipeline and the full-precision
// CPU baseline. Experiment benchmarks use a reduced quick preset (fewer
// flows/epochs) so `go test -bench=.` completes in minutes;
// cmd/pegasus-bench runs the full-size versions. Engine, packet-path,
// fan-out and serving throughput are measured by the benchmark in
// bench/, not here.
package pegasus

import (
	"io"
	"math/rand"
	"testing"

	"github.com/pegasus-idp/pegasus/internal/experiments"
	"github.com/pegasus-idp/pegasus/internal/models"
	"github.com/pegasus-idp/pegasus/internal/tensor"
)

// quickSuite builds a reduced-scale suite shared within one benchmark.
func quickSuite() *experiments.Suite {
	return experiments.NewSuite(experiments.Config{
		FlowsPerClass: 36,
		Epochs:        0.5,
		Seed:          1,
	})
}

func benchExperiment(b *testing.B, name string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		s := quickSuite()
		if err := s.Run(name, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable2Preview regenerates the headline comparison (Table 2).
func BenchmarkTable2Preview(b *testing.B) { benchExperiment(b, "table2") }

// BenchmarkTable5Accuracy regenerates the full accuracy matrix (Table 5).
func BenchmarkTable5Accuracy(b *testing.B) { benchExperiment(b, "table5") }

// BenchmarkTable6Resources regenerates the hardware resource table
// (Table 6).
func BenchmarkTable6Resources(b *testing.B) { benchExperiment(b, "table6") }

// BenchmarkFigure7FlowStorage regenerates the per-flow storage sweep
// (Figure 7).
func BenchmarkFigure7FlowStorage(b *testing.B) { benchExperiment(b, "fig7") }

// BenchmarkFigure8ROC regenerates the AutoEncoder AUC matrix (Figure 8).
func BenchmarkFigure8ROC(b *testing.B) { benchExperiment(b, "fig8") }

// BenchmarkFigure9Accuracy regenerates the fuzzy-vs-full-precision
// comparison (Figure 9a–c).
func BenchmarkFigure9Accuracy(b *testing.B) { benchExperiment(b, "fig9acc") }

// BenchmarkFigure9Throughput regenerates the throughput comparison
// (Figure 9d).
func BenchmarkFigure9Throughput(b *testing.B) { benchExperiment(b, "fig9thr") }

// ---- micro-benchmarks of the inference hot paths ----

func benchCompiled(b *testing.B) (*Feedforward, [][]float64) {
	b.Helper()
	ds := PeerRush(DataConfig{FlowsPerClass: 40, Seed: 2})
	train, _, test := ds.Split(3)
	rng := rand.New(rand.NewSource(2))
	m := NewCNNM(ds.NumClasses(), rng)
	m.Train(train, TrainOpts{Epochs: 10, Seed: 2})
	if err := m.Compile(train); err != nil {
		b.Fatal(err)
	}
	xs, _ := models.ExtractSeq(test)
	return m, xs
}

// BenchmarkFuzzyInference measures host-side compiled fixed-point
// inference (one CNN-M window classification).
func BenchmarkFuzzyInference(b *testing.B) {
	m, xs := benchCompiled(b)
	v := make([]int32, len(xs[0]))
	for j, f := range xs[0] {
		v[j] = int32(f)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Compiled().Classify(v)
	}
}

// BenchmarkSwitchPipeline measures one full PHV pass through the emitted
// PISA program (parse → TCAM → SRAM → SumReduce → argmax).
func BenchmarkSwitchPipeline(b *testing.B) {
	m, xs := benchCompiled(b)
	em, err := m.Emit(1 << 10)
	if err != nil {
		b.Fatal(err)
	}
	v := make([]int32, len(xs[0]))
	for j, f := range xs[0] {
		v[j] = int32(f)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		em.RunSwitch(v)
	}
}

// BenchmarkFullPrecisionInference measures the CPU baseline of Figure 9d
// (one full-precision CNN-M forward).
func BenchmarkFullPrecisionInference(b *testing.B) {
	m, xs := benchCompiled(b)
	mat := tensor.New(1, len(xs[0]))
	copy(mat.Row(0), xs[0])
	mat.Scale(1.0 / 32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Net.Predict(mat)
	}
}
