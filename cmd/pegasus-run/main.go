// Command pegasus-run is the end-to-end demo: synthesise traffic, train
// a model, compile it through the staged pass pipeline, replay the test
// traffic through the simulated switch with the batched execution
// engine, and report dataplane accuracy, throughput and resources.
//
// Usage:
//
//	pegasus-run -dataset PeerRush -model cnn-m -flows 60 -workers 8
//	pegasus-run -model mlp-b -target tofino-multipipe
//	pegasus-run -model cnn-b -packets           # raw-trace replay: per-packet extraction on the switch
//	pegasus-run -model cnn-b -mode interpret    # reference interpreter baseline
//	pegasus-run -models mlp-b,rnn-b             # multi-model serving: one shared-budget scheduler
//	pegasus-run -models cnn-b,cnn-m,rnn-b       # seq models bind ONE physical extraction machine (sharing column + measured RMW saving)
//	pegasus-run -models mlp-b,cnn-b -metrics-addr 127.0.0.1:9090  # + JSON metrics endpoint
//	pegasus-run -models mlp-b,cnn-b -deadline 2ms -max-queue 4    # overload protection: shed instead of queueing
//	pegasus-run -models mlp-b,cnn-b -canary 0.25 -canary-window 500ms  # live canary swap of the first model
//
// Two replay granularities exist. The default feeds pre-extracted
// feature windows to the engine in one batch (RunBatch) — the
// extraction happened on the host. -packets instead feeds the
// raw merged packet trace: the emitted program's own flow-state
// registers perform the Table-6 feature extraction per packet and
// inference fires only on window boundaries (RunPackets). Sustained
// throughput under generated load is the benchmark's job (bench/).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"time"

	"github.com/pegasus-idp/pegasus/internal/core"
	"github.com/pegasus-idp/pegasus/internal/datasets"
	"github.com/pegasus-idp/pegasus/internal/models"
	"github.com/pegasus-idp/pegasus/internal/netsim"
	"github.com/pegasus-idp/pegasus/internal/pisa"
	"github.com/pegasus-idp/pegasus/internal/serve"
)

func main() {
	dsName := flag.String("dataset", "PeerRush", "PeerRush, CICIOT or ISCXVPN")
	model := flag.String("model", "cnn-m", "mlp-b, cnn-b or cnn-m")
	flows := flag.Int("flows", 60, "flows per class")
	epochs := flag.Int("epochs", 60, "training epochs")
	seed := flag.Int64("seed", 1, "random seed")
	workers := flag.Int("workers", runtime.NumCPU(), "replay engine workers (flow-hash shards)")
	target := flag.String("target", "", "emission target: "+strings.Join(core.TargetNames(), ", ")+" (default tofino)")
	mode := flag.String("mode", "compiled", "engine execution mode: compiled (zero-alloc plans) or interpret (reference tables)")
	packets := flag.Bool("packets", false, "replay the RAW merged packet trace: the emitted program's registers extract features per packet and fire inference on window boundaries")
	multi := flag.String("models", "", "comma-separated models (mlp-b,cnn-b,cnn-m,rnn-b) served CONCURRENTLY through the serving control plane (admission-checked, SLO-tuned), with per-model packets/s")
	metricsAddr := flag.String("metrics-addr", "", "with -models: serve the control plane's JSON metrics endpoint on this address (e.g. 127.0.0.1:9090, or :0 for an ephemeral port) and print a snapshot after the run")
	deadline := flag.Duration("deadline", 0, "with -models: per-batch submission deadline; batches the recent queue wait cannot meet are shed up front (reject-newest) instead of queueing")
	maxQueue := flag.Int("max-queue", 0, "with -models: shed a model's batch when at least this many other sessions are queued at its workers (0 = unbounded)")
	canary := flag.Float64("canary", 0, "with -models: after the run warms up, canary-swap the FIRST model to a re-emitted version mirroring this fraction of its traffic, auto-promoting or auto-rolling-back")
	canaryWindow := flag.Duration("canary-window", time.Second, "with -canary: decision window for the canary verdict")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile covering the replay to this path (worker goroutines carry pegasus_worker/pegasus_session pprof labels)")
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		check(err)
		defer f.Close()
		check(pprof.StartCPUProfile(f))
		defer pprof.StopCPUProfile()
	}

	var execMode pisa.ExecMode
	switch *mode {
	case "compiled":
		execMode = pisa.ExecCompiled
	case "interpret", "interpreted":
		execMode = pisa.ExecInterpret
	default:
		fmt.Fprintf(os.Stderr, "unknown mode %q (compiled or interpret)\n", *mode)
		os.Exit(2)
	}

	ds, ok := datasets.ByName(*dsName, datasets.Config{FlowsPerClass: *flows, Seed: *seed})
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown dataset %q\n", *dsName)
		os.Exit(2)
	}
	train, _, test := ds.Split(*seed + 7)
	rng := rand.New(rand.NewSource(*seed))

	if *multi != "" {
		runMultiModels(strings.Split(*multi, ","), ds.NumClasses(), train, test,
			*epochs, *seed, *workers, execMode, *metricsAddr,
			*deadline, *maxQueue, *canary, *canaryWindow, rng)
		return
	}
	if *metricsAddr != "" || *deadline != 0 || *maxQueue != 0 || *canary != 0 {
		fmt.Fprintln(os.Stderr, "-metrics-addr, -deadline, -max-queue and -canary require -models (the serving control plane)")
		os.Exit(2)
	}
	var m *models.Feedforward
	switch *model {
	case "mlp-b":
		m = models.NewMLPB(ds.NumClasses(), rng)
	case "cnn-b":
		m = models.NewCNNB(ds.NumClasses(), rng)
	case "cnn-m":
		m = models.NewCNNM(ds.NumClasses(), rng)
	default:
		fmt.Fprintf(os.Stderr, "unknown model %q\n", *model)
		os.Exit(2)
	}
	if *target != "" {
		tgt, ok := core.LookupTarget(*target)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown target %q (have %s)\n", *target, strings.Join(core.TargetNames(), ", "))
			os.Exit(2)
		}
		m.Opts.Emit.Target = tgt
	}
	fmt.Printf("training %s on %s (%d train / %d test flows)...\n", m.Name, ds.Name, len(train), len(test))
	m.Train(train, models.TrainOpts{Epochs: *epochs, Seed: *seed})
	full, err := m.EvalFull(test, ds.NumClasses())
	check(err)
	fmt.Printf("full precision:  PR %.4f  RC %.4f  F1 %.4f\n", full.Precision, full.Recall, full.F1)

	check(m.Compile(train))
	peg, err := m.EvalPegasus(test, ds.NumClasses())
	check(err)
	fmt.Printf("pegasus (tables): PR %.4f  RC %.4f  F1 %.4f  (Δ %.4f)\n",
		peg.Precision, peg.Recall, peg.F1, peg.F1-full.F1)

	if *packets {
		runPackets(m, test, *workers, execMode)
		fmt.Println()
		fmt.Print(m.Pipeline().DiagString())
		return
	}

	em, err := m.Emit(1 << 16)
	check(err)

	// Replay the test set through the emitted program with the
	// persistent flow-sharded engine — what the switch dataplane would
	// classify.
	xs, ys := m.Extract(test)
	jobs := core.BatchJobsFromFloats(xs)
	eng := em.NewEngineMode(*workers, execMode)
	defer eng.Close()
	start := time.Now()
	res := eng.RunBatch(jobs)
	elapsed := time.Since(start)
	hit := 0
	for i, r := range res {
		if r.Class == ys[i] {
			hit++
		}
	}
	fmt.Printf("switch replay:    %d/%d correct (%.4f) over %d packets in %s (%.3g pkt/s, %d workers, %s)\n",
		hit, len(res), float64(hit)/float64(len(res)), len(res), elapsed.Round(time.Microsecond),
		float64(len(res))/elapsed.Seconds(), eng.Workers(), execMode)
	fmt.Printf("                  plan shape: %v\n", eng.PlanShape())

	fmt.Println()
	fmt.Print(m.Pipeline().DiagString())
	fmt.Println()
	fmt.Print(em.Summary())
}

// runPackets replays the raw merged test trace through the per-packet
// engine path: the emitted extraction machine updates flow-state
// registers on every packet and classification fires on window
// boundaries. Models whose inference already fills the single pipe
// (MLP-B) fall back to the two-pipe Tofino split automatically.
func runPackets(m *models.Feedforward, test []netsim.Flow, workers int, execMode pisa.ExecMode) {
	emp, err := m.EmitPackets(1 << 16)
	if err != nil && m.Pipeline().Opts.Emit.Target == nil {
		tgt, _ := core.LookupTarget("tofino-multipipe")
		m.Pipeline().Opts.Emit.Target = tgt
		fmt.Println("single pipe too small for extraction + inference; using tofino-multipipe")
		emp, err = m.EmitPackets(1 << 16)
	}
	check(err)

	stream := netsim.Merge(test)
	jobs := models.PacketJobs(emp, stream)
	labels := make([]int, len(stream))
	for i, sp := range stream {
		labels[i] = sp.Flow.Class
	}

	eng := emp.NewPacketEngine(workers, execMode)
	defer eng.Close()
	start := time.Now()
	res := eng.RunPackets(jobs)
	elapsed := time.Since(start)
	hit, fires := 0, len(res)
	for _, r := range res {
		if r.Class == labels[r.Pkt] {
			hit++
		}
	}
	acc := 0.0
	if fires > 0 {
		acc = float64(hit) / float64(fires)
	}
	fmt.Printf("packet replay:    %d raw packets in %s (%.3g pkt/s, %d workers, %s)\n",
		len(jobs), elapsed.Round(time.Microsecond), float64(len(jobs))/elapsed.Seconds(), eng.Workers(), execMode)
	fmt.Printf("                  %d windows fired, %d/%d correct (%.4f) — per-packet register extraction on-switch\n",
		fires, hit, fires, acc)
	fmt.Printf("                  plan split: %v\n", eng.PlanSplit())
	fmt.Printf("                  plan shape: %v\n", eng.PlanShape())
	fmt.Println()
	fmt.Print(emp.Summary())
}

// servedModel is one model of a multi-model run: its window-replay
// emission, pre-extracted test jobs and ground-truth labels. reemit
// produces a fresh emission of the same trained model — the canary
// swap's candidate generation.
type servedModel struct {
	name   string
	em     *core.Emitted
	jobs   []pisa.Job
	ys     []int
	reemit func() (*core.Emitted, error)
	// kind is the model's packet-extraction spec kind; emitShared and
	// emitPackets re-emit it as a shared-machine subscriber or with its
	// private fused prelude (for the physical-sharing path and its
	// measured RMW baseline).
	kind        core.ExtractKind
	emitShared  func(*core.SharedExtraction) (*core.Emitted, error)
	emitPackets func(flows int) (*core.Emitted, error)
}

// buildServed trains, compiles and emits one model of the -models list.
func buildServed(name string, k int, train, test []netsim.Flow, epochs int, seed int64, rng *rand.Rand) (servedModel, error) {
	var em *core.Emitted
	var xs [][]float64
	var ys []int
	var reemit func() (*core.Emitted, error)
	var kind core.ExtractKind
	var emitShared func(*core.SharedExtraction) (*core.Emitted, error)
	var emitPackets func(flows int) (*core.Emitted, error)
	var err error
	switch name {
	case "mlp-b", "cnn-b", "cnn-m":
		var m *models.Feedforward
		switch name {
		case "mlp-b":
			m = models.NewMLPB(k, rng)
		case "cnn-b":
			m = models.NewCNNB(k, rng)
		case "cnn-m":
			m = models.NewCNNM(k, rng)
		}
		m.Train(train, models.TrainOpts{Epochs: epochs, Seed: seed})
		if err = m.Compile(train); err != nil {
			return servedModel{}, err
		}
		if em, err = m.Emit(1 << 16); err != nil {
			return servedModel{}, err
		}
		xs, ys = m.Extract(test)
		reemit = func() (*core.Emitted, error) { return m.Emit(1 << 16) }
		kind, emitShared, emitPackets = m.PacketExtract, m.EmitShared, m.EmitPackets
	case "rnn-b":
		m := models.NewRNNB(k, rng)
		m.Train(train, models.TrainOpts{Epochs: epochs, LR: 0.02, Seed: seed})
		if err = m.Compile(train); err != nil {
			return servedModel{}, err
		}
		if em, err = m.Emit(1 << 16); err != nil {
			return servedModel{}, err
		}
		xs, ys = models.ExtractSeq(test)
		reemit = func() (*core.Emitted, error) { return m.Emit(1 << 16) }
		kind, emitShared, emitPackets = core.ExtractSeq, m.EmitShared, m.EmitPackets
	default:
		return servedModel{}, fmt.Errorf("unknown model %q in -models (mlp-b, cnn-b, cnn-m, rnn-b)", name)
	}
	return servedModel{name: name, em: em, jobs: core.BatchJobsFromFloats(xs), ys: ys, reemit: reemit,
		kind: kind, emitShared: emitShared, emitPackets: emitPackets}, nil
}

// runMultiModels is the -models path: every named model is trained,
// compiled and emitted, then registered through the serving control
// plane — admission control validates each candidate against the
// combined deployment budget (growing the pipe count until the set
// fits), the SLO tuner balances the shared pool toward equal busy-time
// shares during the replay window, and -metrics-addr exposes the
// control plane's JSON metrics endpoint while the run is live.
// -deadline/-max-queue arm per-model overload protection (shed batches
// land in the "shed" column) and -canary performs a live canary swap of
// the first model mid-run.
func runMultiModels(names []string, k int, train, test []netsim.Flow, epochs int, seed int64, workers int, execMode pisa.ExecMode, metricsAddr string, deadline time.Duration, maxQueue int, canaryFrac float64, canaryWindow time.Duration, rng *rand.Rand) {
	var served []servedModel
	for _, raw := range names {
		name := strings.TrimSpace(raw)
		if name == "" {
			continue
		}
		fmt.Printf("training %s (%d train / %d test flows)...\n", name, len(train), len(test))
		sm, err := buildServed(name, k, train, test, epochs, seed, rng)
		check(err)
		served = append(served, sm)
	}
	if len(served) == 0 {
		check(fmt.Errorf("-models selected no models"))
	}

	// Physically shared extraction: models resolving the same window
	// spec are re-emitted as register-free subscribers of ONE standalone
	// extraction machine — registration attaches them to its fan-out, so
	// the per-packet flow-state RMWs run once no matter how many models
	// are co-resident. The first model stays private when a canary swap
	// is requested (canaries are not supported on subscribers).
	machines := map[core.ExtractKind]*core.SharedExtraction{}
	shareFrom := 0
	if canaryFrac > 0 {
		shareFrom = 1
	}
	byKind := map[core.ExtractKind][]int{}
	for i := shareFrom; i < len(served); i++ {
		byKind[served[i].kind] = append(byKind[served[i].kind], i)
	}
	for kind, idxs := range byKind {
		if len(idxs) < 2 {
			continue
		}
		shared, err := core.EmitSharedExtraction(fmt.Sprintf("px-shared-%v", kind),
			pisa.Tofino2, models.SharedWindowSpec(kind), 1<<16)
		check(err)
		for _, i := range idxs {
			em, err := served[i].emitShared(shared)
			check(err)
			served[i].em = em
			es := served[i].emitShared
			served[i].reemit = func() (*core.Emitted, error) { return es(shared) }
		}
		machines[kind] = shared
	}

	// Admission-controlled registration: start from a single switch and
	// double the pipe count whenever the combined budget rejects a
	// model, reporting what the admission check said each time.
	var srv *serve.Server
	ms := make([]*serve.Model, 0, len(served))
	pipes := 1
	for ; pipes <= 16; pipes *= 2 {
		srv = serve.NewServer(serve.Options{
			Name: "pegasus-run", Cap: pisa.Tofino2.Pipes(pipes),
			Budget: workers, Mode: execMode,
		})
		ms = ms[:0]
		ok := true
		for _, sm := range served {
			m, err := srv.Register(sm.name, sm.em, 1, serve.SLO{TargetShare: 1 / float64(len(served))})
			if err != nil {
				var ae *serve.AdmissionError
				if !errors.As(err, &ae) {
					check(err)
				}
				fmt.Printf("admission: Tofino2.Pipes(%d) rejects %s: %v\n", pipes, sm.name, ae.Report)
				ok = false
				break
			}
			ms = append(ms, m)
		}
		if ok {
			break
		}
		srv.Close()
	}
	if pipes > 16 {
		check(fmt.Errorf("-models set does not fit 16 pipes"))
	}
	defer srv.Close()
	dep := srv.Deployment()
	stages, sram, tcam := dep.Headroom()
	fmt.Printf("admitted %d models on Tofino2.Pipes(%d); headroom %d stages, %.1f Mb SRAM, %.1f Mb TCAM\n",
		len(ms), pipes, stages, float64(sram)/1e6, float64(tcam)/1e6)

	if maxQueue > 0 {
		for _, m := range ms {
			m.SetShedPolicy(pisa.ShedPolicy{MaxQueue: maxQueue})
		}
	}

	// The metrics endpoint runs on an owned http.Server so the run can
	// shut it down cleanly afterwards — Serve's accept loop and any
	// in-flight handlers are gone before the process reports success,
	// instead of leaking past the run.
	var lis net.Listener
	var hsrv *http.Server
	if metricsAddr != "" {
		var err error
		lis, err = net.Listen("tcp", metricsAddr)
		check(err)
		hsrv = &http.Server{Handler: srv}
		go func() { _ = hsrv.Serve(lis) }()
		fmt.Printf("metrics endpoint: http://%s/\n", lis.Addr())
	}

	// Replay every model's test set concurrently for a fixed wall
	// window with the SLO feedback loop running; the shared pool drains
	// the per-model queues by tuned weight. -deadline bounds every
	// submission; shed batches are skipped (reject-newest) and counted.
	const measure = 2 * time.Second
	srv.StartTuner(measure / 8)
	hits := make([]int, len(served))
	last := make([][]pisa.Result, len(served))
	runOnce := func(i int) {
		if deadline <= 0 && maxQueue <= 0 {
			last[i] = ms[i].Run(served[i].jobs)
			return
		}
		ctx := context.Background()
		cancel := context.CancelFunc(func() {})
		if deadline > 0 {
			ctx, cancel = context.WithTimeout(ctx, deadline)
		}
		res, err := ms[i].RunCtx(ctx, served[i].jobs)
		cancel()
		if err != nil {
			var ov *pisa.ErrOverloaded
			if !errors.As(err, &ov) {
				check(err)
			}
			return // shed: back off to the next iteration
		}
		last[i] = res
	}

	// A canary swap of the first model, launched once traffic is warm:
	// the re-emitted candidate shadows a fraction of live submissions
	// and the verdict (promote or roll back) prints with the results.
	canaryCh := make(chan string, 1)
	if canaryFrac > 0 {
		go func() {
			time.Sleep(measure / 8)
			em2, err := served[0].reemit()
			if err != nil {
				canaryCh <- fmt.Sprintf("canary %s: re-emit failed: %v", served[0].name, err)
				return
			}
			rep, err := ms[0].Swap(em2, serve.SwapOptions{
				MigrateState: true,
				Canary: &serve.CanaryOptions{
					Fraction: canaryFrac, MinSamples: 64, Window: canaryWindow,
				},
			})
			if err != nil {
				canaryCh <- fmt.Sprintf("canary %s: %v", served[0].name, err)
				return
			}
			if rep.RolledBack {
				canaryCh <- fmt.Sprintf("canary %s: ROLLED BACK after %d samples (%s)",
					rep.Model, rep.CanarySamples, rep.RollbackReason)
				return
			}
			canaryCh <- fmt.Sprintf("canary %s: promoted v%d -> v%d after %d samples (disagreement %.4f, downtime %s)",
				rep.Model, rep.From, rep.To, rep.CanarySamples, rep.Disagreement, rep.Downtime.Round(time.Microsecond))
		}()
	}

	var wg sync.WaitGroup
	start := time.Now()
	for i := range served {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for time.Since(start) < measure {
				runOnce(i)
			}
		}(i)
	}
	wg.Wait()
	wall := time.Since(start)
	srv.StopTuner()

	// The canary verdict only advances at submission boundaries: keep
	// the first model's traffic flowing until the decision lands (or a
	// bounded grace period expires and Close aborts the shadow).
	canaryMsg := ""
	if canaryFrac > 0 {
		grace := time.Now().Add(measure)
	waitVerdict:
		for {
			select {
			case canaryMsg = <-canaryCh:
				break waitVerdict
			default:
				if time.Now().After(grace) {
					canaryMsg = fmt.Sprintf("canary %s: no verdict within the run; shadow aborted at close", served[0].name)
					break waitVerdict
				}
				runOnce(0)
			}
		}
	}

	fmt.Printf("\nmulti-model serving: %d models, %d-worker shared budget, %s wall (%s)\n",
		len(served), srv.Scheduler().Budget(), wall.Round(time.Millisecond), execMode)
	if deadline > 0 || maxQueue > 0 {
		fmt.Printf("overload protection: deadline %v, max queue %d\n", deadline, maxQueue)
	}
	if canaryMsg != "" {
		fmt.Println(canaryMsg)
	}
	fmt.Printf("%-8s %4s %6s %14s %10s %8s %10s %8s %-18s %s\n", "model", "ver", "weight", "pkt/s", "accuracy", "occ", "batches", "shed", "sharing", "units pkt/fire/tail-pipes")
	for i, m := range ms {
		st := m.Stats()
		for j, r := range last[i] {
			if r.Class == served[i].ys[j] {
				hits[i]++
			}
		}
		acc := float64(hits[i]) / float64(len(served[i].jobs))
		occ := st.Busy.Seconds() / (wall.Seconds() * float64(srv.Scheduler().Budget()))
		sharing := "-"
		if spec, subs, ok := m.SharedMachine(); ok {
			sharing = fmt.Sprintf("px-shared-%v (%d)", spec.Kind, len(subs))
		}
		split := m.PlanSplit()
		fmt.Printf("%-8s %4d %6d %14.3g %10.4f %7.1f%% %10d %8d %-18s %d/%d/%d\n",
			m.Name(), m.Version(), m.Weight(), float64(st.Packets)/wall.Seconds(), acc,
			100*occ, st.Tasks, st.Shed, sharing, split.PerPacket, split.PerFire, split.TailPipes)
	}
	for _, m := range ms {
		fmt.Printf("plan shape %-8s %v\n", m.Name(), m.PlanShape())
	}

	// Measured per-packet RMW saving: replay the merged raw test trace
	// once through each shared machine's fan-out (every subscriber
	// classifies the fired windows, the machine pays the register RMWs
	// exactly once) and once through one member's private fused-prelude
	// engine as the baseline.
	if len(machines) > 0 {
		merged := netsim.Merge(test)
		for kind, shared := range machines {
			var idxs []int
			for i := range served {
				if served[i].em.Shared == shared {
					idxs = append(idxs, i)
				}
			}
			pkts := models.PacketJobs(shared.Em, merged)
			_ = ms[idxs[0]].RunPackets(pkts)
			var mach *serve.MachineMetrics
			snap := srv.Snapshot()
			for j := range snap.Machines {
				for _, sub := range snap.Machines[j].Subscribers {
					if sub == served[idxs[0]].name {
						mach = &snap.Machines[j]
					}
				}
			}
			if mach == nil || mach.Packets == 0 {
				continue
			}
			sharedPer := float64(mach.RegRMWs) / float64(mach.Packets)
			privPer := 0.0
			for _, i := range idxs {
				emp, err := served[i].emitPackets(1 << 16)
				if err != nil {
					continue // e.g. the private prelude overflows this capacity
				}
				eng := emp.NewPacketEngine(workers, execMode)
				eng.ResetState()
				eng.RunPackets(pkts)
				st := eng.Stats()
				eng.Close()
				privPer = float64(st.RegRMWs) / float64(st.Packets)
				break
			}
			n := len(idxs)
			if privPer > 0 {
				fmt.Printf("shared extraction px-shared-%v: %.1f register RMWs/pkt once for %d models; private preludes pay %.1f/model (%.1f total) — %.0f%% fewer RMWs\n",
					kind, sharedPer, n, privPer, float64(n)*privPer, 100*(1-sharedPer/(float64(n)*privPer)))
			} else {
				fmt.Printf("shared extraction px-shared-%v: %.1f register RMWs/pkt once for %d models (no private baseline fits this capacity)\n",
					kind, sharedPer, n)
			}
		}
	}

	// With a live endpoint, fetch and print one snapshot through HTTP —
	// the same JSON a scraper would see — then shut the server down so
	// nothing outlives the run.
	if hsrv != nil {
		resp, err := http.Get("http://" + lis.Addr().String() + "/")
		check(err)
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		check(err)
		fmt.Printf("\nmetrics snapshot (%s):\n%s", lis.Addr(), body)
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		check(hsrv.Shutdown(shutdownCtx))
	}
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "pegasus-run:", err)
		os.Exit(1)
	}
}
