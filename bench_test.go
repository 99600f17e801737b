package funcytuner

// The benchmark harness regenerates every table and figure of the paper's
// evaluation (§4) under `go test -bench`. One benchmark per artifact:
//
//	BenchmarkFig1CombinedElimination   Fig. 1  (CE vs O3, GCC + ICC)
//	BenchmarkFig5OverallComparison     Fig. 5  (Random/G/FR/CFR × 3 machines)
//	BenchmarkFig6Baselines             Fig. 6  (COBAYN/PGO/OpenTuner vs CFR)
//	BenchmarkFig7InputSensitivity      Fig. 7  (small/large test inputs)
//	BenchmarkFig8TimestepScaling       Fig. 8  (CloverLeaf 100..800 steps)
//	BenchmarkFig9PerLoop               Fig. 9  (per-loop kernel speedups)
//	BenchmarkTable3Decisions           Table 3 (optimization decisions)
//
// Each iteration performs the paper-scale protocol (K = 1000 samples,
// top-50 pruning) and validates the result shape against the paper's
// qualitative claims; the regenerated rows/series are printed once per
// benchmark via -v (b.Logf). Substrate micro-benchmarks (compile, link,
// execute, collect) quantify the simulator itself.

import (
	"context"
	"runtime"

	"testing"

	"funcytuner/internal/apps"
	"funcytuner/internal/arch"
	"funcytuner/internal/caliper"
	"funcytuner/internal/compiler"
	"funcytuner/internal/core"
	"funcytuner/internal/exec"
	"funcytuner/internal/experiments"
	"funcytuner/internal/flagspec"
	"funcytuner/internal/ir"
	"funcytuner/internal/metrics"
	"funcytuner/internal/outline"
	"funcytuner/internal/trace"
	"funcytuner/internal/xrand"
)

// benchConfig is the paper-scale configuration (1000 samples, top-50).
func benchConfig() experiments.Config {
	return experiments.DefaultConfig("funcytuner-repro")
}

func runExperiment(b *testing.B, name string) {
	b.Helper()
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		out, err := experiments.Run(name, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(out.Deviations) > 0 {
			b.Fatalf("%s deviates from the paper's shape: %v", name, out.Deviations)
		}
		if i == 0 {
			for _, t := range out.Tables {
				b.Logf("\n%s", t.Render())
			}
			for _, t := range out.Texts {
				b.Logf("\n%s", t.Render())
			}
		}
	}
}

func BenchmarkFig1CombinedElimination(b *testing.B) { runExperiment(b, "fig1") }

// Extension benchmarks (beyond the paper's artifacts; see
// internal/experiments/ablation.go).
func BenchmarkAblationTopX(b *testing.B)         { runExperiment(b, "ablation") }
func BenchmarkConvergenceStudy(b *testing.B)     { runExperiment(b, "convergence") }
func BenchmarkTuningOverhead(b *testing.B)       { runExperiment(b, "overhead") }
func BenchmarkLTOAblation(b *testing.B)          { runExperiment(b, "lto") }
func BenchmarkSignificanceProtocol(b *testing.B) { runExperiment(b, "significance") }

func BenchmarkFig5OverallComparison(b *testing.B) { runExperiment(b, "fig5") }
func BenchmarkFig6Baselines(b *testing.B)         { runExperiment(b, "fig6") }
func BenchmarkFig7InputSensitivity(b *testing.B)  { runExperiment(b, "fig7") }
func BenchmarkFig8TimestepScaling(b *testing.B)   { runExperiment(b, "fig8") }
func BenchmarkFig9PerLoop(b *testing.B)           { runExperiment(b, "fig9") }
func BenchmarkTable3Decisions(b *testing.B)       { runExperiment(b, "table3") }

// ---- substrate micro-benchmarks ----

// BenchmarkCompileModule measures one module compilation (pass pipeline).
func BenchmarkCompileModule(b *testing.B) {
	tc := compiler.NewToolchain(flagspec.ICC())
	prog := apps.MustGet(apps.CloverLeaf)
	part := ir.WholeProgram(prog)
	cv := flagspec.ICC().Baseline()
	m := arch.Broadwell()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tc.CompileModule(prog, part.Modules[0], cv, m)
	}
}

// BenchmarkCompileAndLink measures a full per-loop compile + link with
// interference resolution.
func BenchmarkCompileAndLink(b *testing.B) {
	tc := compiler.NewToolchain(flagspec.ICC())
	prog := apps.MustGet(apps.CloverLeaf)
	m := arch.Broadwell()
	res, err := outline.AutoOutline(tc, prog, m, apps.TuningInput(apps.CloverLeaf, m), outline.HotThreshold, 1, nil)
	if err != nil {
		b.Fatal(err)
	}
	cvs := make([]flagspec.CV, len(res.Partition.Modules))
	for i := range cvs {
		cvs[i] = flagspec.ICC().Baseline().With(flagspec.IccPrefetch, i%5)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tc.Compile(prog, res.Partition, cvs, m); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExecRun measures one simulated program execution.
func BenchmarkExecRun(b *testing.B) {
	tc := compiler.NewToolchain(flagspec.ICC())
	prog := apps.MustGet(apps.AMG)
	m := arch.Broadwell()
	exe, err := tc.CompileUniform(prog, ir.WholeProgram(prog), flagspec.ICC().Baseline(), m)
	if err != nil {
		b.Fatal(err)
	}
	in := apps.TuningInput(apps.AMG, m)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		exec.Run(exe, m, in, exec.Options{})
	}
}

// BenchmarkCaliperCollect measures one instrumented profile collection.
func BenchmarkCaliperCollect(b *testing.B) {
	tc := compiler.NewToolchain(flagspec.ICC())
	prog := apps.MustGet(apps.LULESH)
	m := arch.Broadwell()
	exe, err := tc.CompileUniform(prog, ir.WholeProgram(prog), flagspec.ICC().Baseline(), m)
	if err != nil {
		b.Fatal(err)
	}
	in := apps.TuningInput(apps.LULESH, m)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		caliper.Collect(exe, m, in, 1, nil)
	}
}

// BenchmarkCFRSession measures the full FuncyTuner pipeline (collection +
// Algorithm 1) at paper scale on one benchmark/machine.
func BenchmarkCFRSession(b *testing.B) {
	tc := compiler.NewToolchain(flagspec.ICC())
	prog := apps.MustGet(apps.CloverLeaf)
	m := arch.Broadwell()
	in := apps.TuningInput(apps.CloverLeaf, m)
	res, err := outline.AutoOutline(tc, prog, m, in, outline.HotThreshold, 1, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sess, err := core.NewSession(tc, prog, res.Partition, m, in, core.DefaultConfig("bench-cfr"))
		if err != nil {
			b.Fatal(err)
		}
		col, err := sess.Collect(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sess.CFR(context.Background(), col); err != nil {
			b.Fatal(err)
		}
		benchSettle(b)
	}
}

// benchSettle collects the previous iteration's garbage outside the
// timer, so every session variant (uncached, cold, warm) is measured
// from the same near-empty heap instead of paying GC for its
// predecessor's corpse inside the timed region. Applied identically to
// all session benchmarks, it changes only cross-iteration bleed, never
// the in-session cost being measured.
func benchSettle(b *testing.B) {
	b.Helper()
	b.StopTimer()
	runtime.GC()
	b.StartTimer()
}

// ---- compile/link cache micro-benchmarks ----
//
// Cache-off vs cache-on wall-clock and allocs are tracked in
// BENCH_eval.json from PR 2 on; the CI benchmark smoke job runs each once
// per push. Compilation is pure, so the cached variants produce
// bit-identical executables — only the physical work differs.

// BenchmarkCompileCached measures the CFR-shaped compile workload —
// assemblies that differ from a baseline in exactly one module, with the
// per-module CVs drawn from a small (pruned-pool-sized) set — uncached
// vs cached. With the cache on, J−1 of J module compiles are object-tier
// hits and repeated assemblies skip the link too.
func BenchmarkCompileCached(b *testing.B) {
	prog := apps.MustGet(apps.CloverLeaf)
	m := arch.Broadwell()
	space := flagspec.ICC()
	tc := compiler.NewToolchain(space)
	res, err := outline.AutoOutline(tc, prog, m, apps.TuningInput(apps.CloverLeaf, m), outline.HotThreshold, 1, nil)
	if err != nil {
		b.Fatal(err)
	}
	pool := space.Sample(xrand.NewFromString("bench-cache-pool"), 50)
	for _, cached := range []bool{false, true} {
		name := "cache=off"
		if cached {
			name = "cache=on"
		}
		b.Run(name, func(b *testing.B) {
			tc := compiler.NewToolchain(space)
			if cached {
				tc.AttachCache(compiler.NewCompileCache(0))
			}
			base := space.Baseline()
			cvs := make([]flagspec.CV, len(res.Partition.Modules))
			for mi := range cvs {
				cvs[mi] = base
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				mi := i % len(cvs)
				cvs[mi] = pool[i%len(pool)]
				if _, err := tc.Compile(prog, res.Partition, cvs, m); err != nil {
					b.Fatal(err)
				}
				cvs[mi] = base
			}
		})
	}
}

// BenchmarkCollectCached measures a full mini tuning session (collection
// + CFR) uncached vs cached — the end-to-end evaluation-pipeline number.
// Each iteration gets a fresh cache, so this is one cold session with
// only intra-session reuse (collection pre-compiles every (module, CV)
// pair CFR later draws from its pruned pools).
func BenchmarkCollectCached(b *testing.B) {
	prog := apps.MustGet(apps.CloverLeaf)
	m := arch.Broadwell()
	in := apps.TuningInput(apps.CloverLeaf, m)
	space := flagspec.ICC()
	res, err := outline.AutoOutline(compiler.NewToolchain(space), prog, m, in, outline.HotThreshold, 1, nil)
	if err != nil {
		b.Fatal(err)
	}
	for _, cached := range []bool{false, true} {
		name := "cache=off"
		if cached {
			name = "cache=on"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tc := compiler.NewToolchain(space)
				if cached {
					tc.AttachCache(compiler.NewCompileCache(0))
				}
				sess, err := core.NewSession(tc, prog, res.Partition, m, in, core.Config{
					Samples: 120, TopX: 12, Seed: "bench-collect-cached", Noisy: true,
				})
				if err != nil {
					b.Fatal(err)
				}
				col, err := sess.Collect(context.Background())
				if err != nil {
					b.Fatal(err)
				}
				if _, err := sess.CFR(context.Background(), col); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCFRSessionCached is BenchmarkCFRSession (paper scale: K=1000,
// top-50) with the compile cache attached — the committed BENCH_eval.json
// speedups compare against the uncached BenchmarkCFRSession.
//
// Two regimes:
//
//   - cold: a fresh cache per session. Collection is all misses; only the
//     intra-session reuse (CFR re-drawing collection's CVs, baseline
//     re-links) is cached. This bounds the worst case — a cache attached
//     for a single one-shot run.
//   - warm: one cache shared across sessions, primed by a full session
//     before timing — the tuning-campaign steady state (FuncyTuner's
//     cross-machine sweeps and repeated-measurement protocol re-tune the
//     same program; §4.1 measures each configuration 10×). Here the
//     compile phase is almost entirely hits, which is where the
//     (J−1)/J compile-work elimination turns into wall-clock.
func BenchmarkCFRSessionCached(b *testing.B) {
	prog := apps.MustGet(apps.CloverLeaf)
	m := arch.Broadwell()
	in := apps.TuningInput(apps.CloverLeaf, m)
	res, err := outline.AutoOutline(compiler.NewToolchain(flagspec.ICC()), prog, m, in, outline.HotThreshold, 1, nil)
	if err != nil {
		b.Fatal(err)
	}
	runSession := func(b *testing.B, cc *compiler.CompileCache) {
		b.Helper()
		tc := compiler.NewToolchain(flagspec.ICC())
		tc.AttachCache(cc)
		sess, err := core.NewSession(tc, prog, res.Partition, m, in, core.DefaultConfig("bench-cfr"))
		if err != nil {
			b.Fatal(err)
		}
		col, err := sess.Collect(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sess.CFR(context.Background(), col); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			runSession(b, compiler.NewCompileCache(0))
			benchSettle(b)
		}
	})
	b.Run("warm", func(b *testing.B) {
		cc := compiler.NewCompileCache(0)
		runSession(b, cc) // prime
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			runSession(b, cc)
			benchSettle(b)
		}
	})
}

// BenchmarkSessionTraceDisabled quantifies the observability overhead on
// the paper-scale CFR session (the BenchmarkCFRSessionCached cold
// workload):
//
//   - observability=off: no recorder, no registry — the nil-receiver
//     fast path every ordinary run takes. Comparing this against
//     BenchmarkCFRSessionCached/cold bounds the cost of *having* the
//     instrumentation hooks compiled in (the acceptance bar is <2%).
//   - observability=on: trace recorder and metrics registry attached —
//     what a -trace run pays.
func BenchmarkSessionTraceDisabled(b *testing.B) {
	prog := apps.MustGet(apps.CloverLeaf)
	m := arch.Broadwell()
	in := apps.TuningInput(apps.CloverLeaf, m)
	res, err := outline.AutoOutline(compiler.NewToolchain(flagspec.ICC()), prog, m, in, outline.HotThreshold, 1, nil)
	if err != nil {
		b.Fatal(err)
	}
	for _, observed := range []bool{false, true} {
		name := "observability=off"
		if observed {
			name = "observability=on"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tc := compiler.NewToolchain(flagspec.ICC())
				tc.AttachCache(compiler.NewCompileCache(0))
				sess, err := core.NewSession(tc, prog, res.Partition, m, in, core.DefaultConfig("bench-cfr"))
				if err != nil {
					b.Fatal(err)
				}
				if observed {
					sess.AttachTrace(trace.NewRecorder())
					sess.AttachMetrics(metrics.NewRegistry())
				}
				col, err := sess.Collect(context.Background())
				if err != nil {
					b.Fatal(err)
				}
				if _, err := sess.CFR(context.Background(), col); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFlagSpaceSampling measures CV sampling + knob materialization.
func BenchmarkFlagSpaceSampling(b *testing.B) {
	space := flagspec.ICC()
	rng := xrand.NewFromString("bench-sampling")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cv := space.Random(rng)
		_ = cv.Knobs()
	}
}
