// Benchmarks regenerating each of the paper's tables and figures
// (Table I–IV, Fig. 3–7) at a reduced benchmark scale, plus
// microbenchmarks of the hot computational kernels. Run with:
//
//	go test -bench=. -benchmem
//
// Each experiment benchmark performs one full regeneration per
// iteration; the printed ns/op is the wall time of reproducing that
// table or figure under the benchmark configuration.
package targad_test

import (
	"context"
	"fmt"
	"io"
	"math"
	"runtime"
	"testing"

	"targad/internal/autoencoder"
	"targad/internal/cluster"
	"targad/internal/core"
	"targad/internal/dataset/synth"
	"targad/internal/experiments"
	"targad/internal/mat"
	"targad/internal/metrics"
	"targad/internal/nn"
	"targad/internal/parallel"
	"targad/internal/rng"
)

// benchWorkerCounts returns the worker counts the kernel benchmarks
// sweep: the serial path (1) and the full pool (GOMAXPROCS, which
// `go test -cpu 1,4,8` varies per run). Deduplicated on one-core
// boxes.
func benchWorkerCounts() []int {
	n := runtime.GOMAXPROCS(0)
	if n <= 1 {
		return []int{1}
	}
	return []int{1, n}
}

// atWorkers runs the benchmark body with the pool pinned to w workers.
// Allocation stats are always reported: the zero-allocation training
// contract (PR 2) is tracked per benchmark alongside ns/op.
func atWorkers(b *testing.B, w int, body func(b *testing.B)) {
	b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
		prev := parallel.SetWorkers(w)
		defer parallel.SetWorkers(prev)
		b.ReportAllocs()
		b.ResetTimer()
		body(b)
	})
}

// benchConfig keeps each experiment's regeneration to seconds rather
// than minutes so the full -bench=. sweep completes on one core. For
// paper-scale numbers use `targad-bench -full`.
func benchConfig() experiments.RunConfig {
	return experiments.RunConfig{
		Scale:          0.015,
		Runs:           1,
		Seed:           1,
		AEEpochs:       3,
		ClfEpochs:      8,
		AELR:           1e-3,
		ClfLR:          1e-3,
		LabeledPerType: 10,
	}
}

// trimmed restricts comparative sweeps to a representative baseline
// panel (plus TargAD) so multi-setting figures stay benchmarkable.
func trimmed() experiments.RunConfig {
	rc := benchConfig()
	rc.ModelFilter = []string{"DeepSAD", "DevNet"}
	return rc
}

func BenchmarkTable1Datasets(b *testing.B) {
	rc := benchConfig()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table1(rc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable2Overall(b *testing.B) {
	rc := trimmed()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table2(context.Background(), rc, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable3Ablation(b *testing.B) {
	rc := benchConfig()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table3(context.Background(), rc, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable4OOD(b *testing.B) {
	rc := benchConfig()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table4(context.Background(), rc, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig3Convergence(b *testing.B) {
	rc := benchConfig()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig3(context.Background(), rc, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig4aNovelNonTarget(b *testing.B) {
	rc := trimmed()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig4a(context.Background(), rc, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig4bTargetClasses(b *testing.B) {
	rc := trimmed()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig4b(context.Background(), rc, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig4cLabeledCount(b *testing.B) {
	rc := trimmed()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig4c(context.Background(), rc, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig4dContamination(b *testing.B) {
	rc := trimmed()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig4d(context.Background(), rc, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig5Weights(b *testing.B) {
	rc := benchConfig()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig5(context.Background(), rc, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig6AlphaSensitivity(b *testing.B) {
	rc := benchConfig()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig6(context.Background(), rc, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig7aEta(b *testing.B) {
	rc := benchConfig()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig7Eta(context.Background(), rc, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig7bcLambda(b *testing.B) {
	rc := benchConfig()
	rc.ClfEpochs = 4 // 36-cell grid; keep the sweep bounded
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig7Lambda(context.Background(), rc, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Component benchmarks ---------------------------------------------

func BenchmarkTargADFit(b *testing.B) {
	bundle, err := synth.Generate(synth.KDDCUP99(), synth.Options{
		Scale: 0.03, Seed: 1, LabeledPerType: 20,
	})
	if err != nil {
		b.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.K = 3
	cfg.AEEpochs = 3
	cfg.ClfEpochs = 8
	cfg.AELR = 1e-3
	cfg.ClfLR = 1e-3
	for _, w := range benchWorkerCounts() {
		atWorkers(b, w, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m := core.New(cfg, int64(i))
				if err := m.Fit(context.Background(), bundle.Train); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTargADScore times f64 scoring (core.Model.Infer, scores
// only) on two models. KDDCUP99 scores its whole test split in one
// pass. UNSW-NB15 is bench/'s UNSW-NB15 model (scale 0.05, 10 epochs,
// seed 1) scoring its 1130 test rows in 64-row passes, the pass shape
// of targad-serve's default -max-batch; its us/row against
// BenchmarkTargADScoreF32's is the f64/f32 ratio of DESIGN.md §10,
// measured over 9 interleaved rounds:
//
//	for i in 1 2 3 4 5 6 7 8 9; do
//		go test -run '^$' -bench 'TargADScore(F32)?/UNSW' -cpu 1 .
//	done
func BenchmarkTargADScore(b *testing.B) { benchScore(b, false) }

// BenchmarkTargADScoreF32 is BenchmarkTargADScore's workload on the
// float32 inference path (EnableF32 + InferF32, the same path
// targad-serve -precision f32 takes), input narrowing included. The
// ratio against BenchmarkTargADScore's f64 rows is the end-to-end f32
// kernel speedup recorded in BENCH_PR6.json.
func BenchmarkTargADScoreF32(b *testing.B) { benchScore(b, true) }

// benchScore runs BenchmarkTargADScore's cases on the f64 path, or
// with f32 on the f32 path.
func benchScore(b *testing.B, f32 bool) {
	unsw := core.DefaultConfig()
	unsw.AEEpochs, unsw.ClfEpochs = 10, 10
	unsw.AELR, unsw.ClfLR = 1e-3, 1e-3
	kdd := unsw
	kdd.K, kdd.AEEpochs, kdd.ClfEpochs = 3, 3, 8
	for _, c := range []struct {
		name    string
		profile synth.Profile
		opt     synth.Options
		cfg     core.Config
		pass    int // rows per Infer call
	}{
		{"KDDCUP99", synth.KDDCUP99(), synth.Options{Scale: 0.03, Seed: 1, LabeledPerType: 20}, kdd, math.MaxInt},
		{"UNSW-NB15/pass=64", synth.UNSWNB15(), synth.Options{Scale: 0.05, Seed: 1}, unsw, 64},
	} {
		b.Run(c.name, func(b *testing.B) {
			bundle, err := synth.Generate(c.profile, c.opt)
			if err != nil {
				b.Fatal(err)
			}
			m := core.New(c.cfg, 1)
			if err := m.Fit(context.Background(), bundle.Train); err != nil {
				b.Fatal(err)
			}
			infer := m.Infer
			if f32 {
				if err := m.EnableF32(); err != nil {
					b.Fatal(err)
				}
				infer = m.InferF32
			}
			x := bundle.Test.X
			for _, w := range benchWorkerCounts() {
				atWorkers(b, w, func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						for lo := 0; lo < x.Rows; lo += c.pass {
							n := min(c.pass, x.Rows-lo)
							view := &mat.Matrix{Rows: n, Cols: x.Cols, Data: x.Data[lo*x.Cols : (lo+n)*x.Cols]}
							if _, err := infer(context.Background(), view, core.InferOptions{}); err != nil {
								b.Fatal(err)
							}
						}
					}
					b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N*x.Rows), "us/row")
				})
			}
		})
	}
}

// BenchmarkMatMul times the f64 GEMMs. Beyond the two Mul reference
// shapes it covers the products of one UNSW-NB15 training step (d=196,
// hidden 98 and 49, batch 128): the forward Mul of each layer, the
// weight-gradient aᵀ·b and the input-gradient a·bᵀ.
func BenchmarkMatMul(b *testing.B) {
	sizes := []struct {
		name    string
		op      string // "Mul": m×k·k×n; "ATB": (k×m)ᵀ·k×n; "ABT": m×k·(n×k)ᵀ
		m, k, n int
	}{
		{"128x196x64", "Mul", 128, 196, 64},         // classifier-batch shape
		{"1024x1024x1024", "Mul", 1024, 1024, 1024}, // square paper-scale GEMM
		{"Mul/128x196x98", "Mul", 128, 196, 98},     // UNSW layer 1 forward
		{"Mul/128x98x49", "Mul", 128, 98, 49},       // UNSW layer 2 forward
		{"ATB/196<-128->98", "ATB", 196, 128, 98},   // UNSW layer 1 weight gradient
		{"ABT/128x98->196", "ABT", 128, 98, 196},    // UNSW layer 1 input gradient
	}
	for _, sz := range sizes {
		r := rng.New(1)
		var a, w *mat.Matrix
		mul := mat.Mul
		switch sz.op {
		case "Mul":
			a, w = mat.New(sz.m, sz.k), mat.New(sz.k, sz.n)
		case "ATB":
			a, w = mat.New(sz.k, sz.m), mat.New(sz.k, sz.n)
			mul = mat.MulATB
		case "ABT":
			a, w = mat.New(sz.m, sz.k), mat.New(sz.n, sz.k)
			mul = mat.MulABT
		}
		r.FillNormal(a.Data, 0, 1)
		r.FillNormal(w.Data, 0, 1)
		dst := mat.New(sz.m, sz.n)
		b.Run(sz.name, func(b *testing.B) {
			for _, nw := range benchWorkerCounts() {
				atWorkers(b, nw, func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						if _, err := mul(dst, a, w); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		})
	}
}

func BenchmarkSoftmaxRows(b *testing.B) {
	r := rng.New(2)
	logits := mat.New(256, 10)
	r.FillNormal(logits.Data, 0, 3)
	var out *mat.Matrix
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out = nn.SoftmaxRowsInto(out, logits)
	}
}

// BenchmarkKMeans times a full k-means run; the 3132×196, k=5 case is
// the UNSW-NB15 unlabeled pool the benchmark's models cluster.
func BenchmarkKMeans(b *testing.B) {
	cases := []struct {
		name    string
		n, d, k int
	}{
		{"1500x41/k=4", 1500, 41, 4},
		{"3132x196/k=5", 3132, 196, 5},
	}
	for _, c := range cases {
		r := rng.New(3)
		x := mat.New(c.n, c.d)
		r.FillUniform(x.Data, 0, 1)
		b.Run(c.name, func(b *testing.B) {
			for _, w := range benchWorkerCounts() {
				atWorkers(b, w, func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						if _, err := cluster.KMeans(context.Background(), x, cluster.Config{K: c.k}, rng.New(int64(i))); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		})
	}
}

// BenchmarkAutoencoderEpoch measures one steady-state training epoch:
// the autoencoder is built (and its workspaces warmed) outside the
// timed loop, so allocs/op reflects the epoch loop itself, not
// construction.
func BenchmarkAutoencoderEpoch(b *testing.B) {
	r := rng.New(4)
	x := mat.New(1024, 41)
	r.FillUniform(x.Data, 0, 1)
	cfg := autoencoder.Config{InputDim: 41, Hidden: []int{20, 10}, LR: 1e-3, BatchSize: 256, Epochs: 1}
	for _, w := range benchWorkerCounts() {
		atWorkers(b, w, func(b *testing.B) {
			ae, err := autoencoder.New(cfg, rng.New(1))
			if err != nil {
				b.Fatal(err)
			}
			if _, err := ae.Train(context.Background(), x, nil, rng.New(0)); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ae.Train(context.Background(), x, nil, rng.New(int64(i))); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkAUPRC(b *testing.B) {
	r := rng.New(5)
	n := 20000
	scores := make([]float64, n)
	labels := make([]bool, n)
	for i := range scores {
		scores[i] = r.Float64()
		labels[i] = r.Bernoulli(0.08)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := metrics.AUPRC(scores, labels); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkIsolationForestScore(b *testing.B) {
	bundle, err := synth.Generate(synth.NSLKDD(), synth.Options{Scale: 0.03, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	rc := benchConfig()
	m, _ := experiments.ModelByName(rc, "iForest")
	det := m.New(1)
	if err := det.Fit(context.Background(), bundle.Train); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := det.Score(context.Background(), bundle.Test.X); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSynthGenerate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := synth.Generate(synth.UNSWNB15(), synth.Options{Scale: 0.02, Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}
