//===- bench/solver_microbench.cpp - Constraint solver microbenchmarks -----===//
//
// Part of the libquals project, reproducing "A Theory of Type Qualifiers"
// (Foster, Fähndrich, Aiken; PLDI 1999).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// google-benchmark microbenchmarks backing the Section 3.1 claim that
/// atomic qualifier constraints solve in linear time [HR97]: solve time per
/// constraint should stay flat as systems grow, across topologies (chains,
/// stars, layered DAGs, random graphs), and incremental re-solves should be
/// proportional to the newly added constraints.
///
/// BM_BulkSolveLinesPerSecond is the headline: modeled source lines
/// analyzed per second by the solver alone (docs/SOLVER.md has the design).
/// The cyclic and duplicate-heavy topologies (ring, strongly connected
/// blob, duplicated edges) check that cycles cost the worklist at most |Q|
/// visits per edge, not repeated re-traversal.
///
//===----------------------------------------------------------------------===//

#include "qual/ConstraintSystem.h"
#include "qual/TypeScheme.h"
#include "support/Metrics.h"
#include "support/Trace.h"

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

using namespace quals;

namespace {

QualifierSet makeQuals() {
  QualifierSet QS;
  QS.add("const", Polarity::Positive);
  QS.add("tainted", Polarity::Positive);
  QS.add("nonzero", Polarity::Negative);
  return QS;
}

/// Deterministic generator (benchmarks must not depend on global state).
struct Lcg {
  uint64_t State = 88172645463325252ULL;
  uint64_t next() {
    State ^= State << 13;
    State ^= State >> 7;
    State ^= State << 17;
    return State;
  }
  unsigned below(unsigned N) { return next() % N; }
};

void BM_BulkSolveLinesPerSecond(benchmark::State &State) {
  // The headline number (docs/SOLVER.md): a bulk solve over a
  // program-shaped layered DAG -- one qualifier variable per modeled source
  // line, ~4 constraints each, seeds sprinkled in. items/s is modeled
  // source lines analyzed per second by the solver alone.
  QualifierSet QS = makeQuals();
  unsigned Lines = State.range(0);
  for (auto _ : State) {
    ConstraintSystem Sys(QS);
    Lcg R;
    std::vector<QualVarId> Vars;
    Vars.reserve(Lines);
    for (unsigned I = 0; I != Lines; ++I)
      Vars.push_back(Sys.freshVar());
    for (unsigned I = 1; I != Lines; ++I)
      for (unsigned E = 0; E != 4; ++E)
        Sys.addLeq(QualExpr::makeVar(Vars[R.below(I)]),
                   QualExpr::makeVar(Vars[I]), {"edge"});
    for (unsigned S = 0; S != Lines / 20 + 1; ++S)
      Sys.addLeq(QualExpr::makeConst(LatticeValue(R.below(8))),
                 QualExpr::makeVar(Vars[R.below(Lines)]), {"seed"});
    bool Ok = Sys.solve();
    benchmark::DoNotOptimize(Ok);
    benchmark::DoNotOptimize(Sys.lower(Vars[Lines - 1]));
  }
  State.SetItemsProcessed(static_cast<int64_t>(State.iterations()) * Lines);
  State.counters["lines_per_second"] = benchmark::Counter(
      static_cast<double>(State.iterations()) * Lines,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_BulkSolveLinesPerSecond)->Range(1 << 12, 1 << 16);

void BM_SolveChain(benchmark::State &State) {
  QualifierSet QS = makeQuals();
  unsigned N = State.range(0);
  for (auto _ : State) {
    ConstraintSystem Sys(QS);
    QualVarId Prev = Sys.freshVar();
    Sys.addLeq(QualExpr::makeConst(QS.valueWithPresent({0})),
               QualExpr::makeVar(Prev), {"seed"});
    for (unsigned I = 1; I != N; ++I) {
      QualVarId Next = Sys.freshVar();
      Sys.addLeq(QualExpr::makeVar(Prev), QualExpr::makeVar(Next), {"edge"});
      Prev = Next;
    }
    bool Ok = Sys.solve();
    benchmark::DoNotOptimize(Ok);
    benchmark::DoNotOptimize(Sys.lower(Prev));
  }
  State.SetItemsProcessed(static_cast<int64_t>(State.iterations()) * N);
}
BENCHMARK(BM_SolveChain)->Range(1 << 8, 1 << 17);

void BM_SolveStar(benchmark::State &State) {
  // One hub with N spokes: stresses fan-out.
  QualifierSet QS = makeQuals();
  unsigned N = State.range(0);
  for (auto _ : State) {
    ConstraintSystem Sys(QS);
    QualVarId Hub = Sys.freshVar();
    Sys.addLeq(QualExpr::makeConst(QS.valueWithPresent({1})),
               QualExpr::makeVar(Hub), {"seed"});
    for (unsigned I = 0; I != N; ++I) {
      QualVarId Spoke = Sys.freshVar();
      Sys.addLeq(QualExpr::makeVar(Hub), QualExpr::makeVar(Spoke), {"edge"});
    }
    bool Ok = Sys.solve();
    benchmark::DoNotOptimize(Ok);
  }
  State.SetItemsProcessed(static_cast<int64_t>(State.iterations()) * N);
}
BENCHMARK(BM_SolveStar)->Range(1 << 8, 1 << 17);

void BM_SolveRandomDag(benchmark::State &State) {
  QualifierSet QS = makeQuals();
  unsigned N = State.range(0);
  for (auto _ : State) {
    ConstraintSystem Sys(QS);
    Lcg R;
    std::vector<QualVarId> Vars;
    Vars.reserve(N);
    for (unsigned I = 0; I != N; ++I)
      Vars.push_back(Sys.freshVar());
    // ~4 edges per var, respecting creation order (a DAG).
    for (unsigned I = 1; I != N; ++I)
      for (unsigned E = 0; E != 4; ++E)
        Sys.addLeq(QualExpr::makeVar(Vars[R.below(I)]),
                   QualExpr::makeVar(Vars[I]), {"edge"});
    for (unsigned S = 0; S != N / 20 + 1; ++S)
      Sys.addLeq(QualExpr::makeConst(LatticeValue(R.below(8))),
                 QualExpr::makeVar(Vars[R.below(N)]), {"seed"});
    for (unsigned U = 0; U != N / 20 + 1; ++U)
      Sys.addLeq(QualExpr::makeVar(Vars[R.below(N)]),
                 QualExpr::makeConst(QS.top()), {"bound"});
    bool Ok = Sys.solve();
    benchmark::DoNotOptimize(Ok);
  }
  State.SetItemsProcessed(static_cast<int64_t>(State.iterations()) * N * 4);
}
BENCHMARK(BM_SolveRandomDag)->Range(1 << 8, 1 << 15);

void BM_SolveRing(benchmark::State &State) {
  // One big <= cycle with lattice seeds spread around it: every seeded bit
  // walks the whole ring once, so visits stay within |Q| per edge.
  QualifierSet QS = makeQuals();
  unsigned N = State.range(0);
  for (auto _ : State) {
    ConstraintSystem Sys(QS);
    std::vector<QualVarId> Vars;
    Vars.reserve(N);
    for (unsigned I = 0; I != N; ++I)
      Vars.push_back(Sys.freshVar());
    for (unsigned I = 0; I != N; ++I)
      Sys.addLeq(QualExpr::makeVar(Vars[I]),
                 QualExpr::makeVar(Vars[(I + 1) % N]), {"edge"});
    for (unsigned S = 0; S != 3; ++S)
      Sys.addLeq(QualExpr::makeConst(LatticeValue(uint64_t(1) << S)),
                 QualExpr::makeVar(Vars[(S * N) / 3]), {"seed"});
    bool Ok = Sys.solve();
    benchmark::DoNotOptimize(Ok);
    benchmark::DoNotOptimize(Sys.lower(Vars[0]));
  }
  State.SetItemsProcessed(static_cast<int64_t>(State.iterations()) * N);
}
BENCHMARK(BM_SolveRing)->Range(1 << 8, 1 << 16);

void BM_SolveSccBlob(benchmark::State &State) {
  // ~4 random edges per variable with no ordering constraint: the graph is
  // one giant strongly connected component plus tendrils.
  QualifierSet QS = makeQuals();
  unsigned N = State.range(0);
  for (auto _ : State) {
    ConstraintSystem Sys(QS);
    Lcg R;
    std::vector<QualVarId> Vars;
    Vars.reserve(N);
    for (unsigned I = 0; I != N; ++I)
      Vars.push_back(Sys.freshVar());
    for (unsigned I = 0; I != N; ++I)
      for (unsigned E = 0; E != 4; ++E)
        Sys.addLeq(QualExpr::makeVar(Vars[I]),
                   QualExpr::makeVar(Vars[R.below(N)]), {"edge"});
    for (unsigned S = 0; S != N / 20 + 1; ++S)
      Sys.addLeq(QualExpr::makeConst(LatticeValue(R.below(8))),
                 QualExpr::makeVar(Vars[R.below(N)]), {"seed"});
    bool Ok = Sys.solve();
    benchmark::DoNotOptimize(Ok);
    benchmark::DoNotOptimize(Sys.lower(Vars[0]));
  }
  State.SetItemsProcessed(static_cast<int64_t>(State.iterations()) * N * 4);
}
BENCHMARK(BM_SolveSccBlob)->Range(1 << 8, 1 << 15);

void BM_SolveDuplicateEdges(benchmark::State &State) {
  // A chain where every hop is stated 8 times (constraint generators emit
  // duplicates freely; e.g. one per call site), then 16 rounds of new facts
  // arriving at the head, each re-solved: a long-lived system whose graph
  // is propagated over many times.
  QualifierSet QS;
  std::vector<QualifierId> Quals;
  for (unsigned I = 0; I != 16; ++I)
    Quals.push_back(QS.add("q" + std::to_string(I), Polarity::Positive));
  unsigned N = State.range(0);
  for (auto _ : State) {
    ConstraintSystem Sys(QS);
    QualVarId First = Sys.freshVar();
    QualVarId Prev = First;
    for (unsigned I = 1; I != N; ++I) {
      QualVarId Next = Sys.freshVar();
      for (unsigned D = 0; D != 8; ++D)
        Sys.addLeq(QualExpr::makeVar(Prev), QualExpr::makeVar(Next),
                   {"edge"});
      Prev = Next;
    }
    bool Ok = true;
    for (QualifierId Q : Quals) {
      Sys.addLeq(QualExpr::makeConst(QS.valueWithPresent({Q})),
                 QualExpr::makeVar(First), {"new fact"});
      Ok &= Sys.solve();
    }
    benchmark::DoNotOptimize(Ok);
    benchmark::DoNotOptimize(Sys.lower(Prev));
  }
  State.SetItemsProcessed(static_cast<int64_t>(State.iterations()) * N * 8 *
                          16);
}
BENCHMARK(BM_SolveDuplicateEdges)->Range(1 << 8, 1 << 14);

void BM_UpperBoundBackward(benchmark::State &State) {
  // A chain with an upper bound at the end: exercises backward meets.
  QualifierSet QS = makeQuals();
  unsigned N = State.range(0);
  for (auto _ : State) {
    ConstraintSystem Sys(QS);
    QualVarId First = Sys.freshVar();
    QualVarId Prev = First;
    for (unsigned I = 1; I != N; ++I) {
      QualVarId Next = Sys.freshVar();
      Sys.addLeq(QualExpr::makeVar(Prev), QualExpr::makeVar(Next), {"edge"});
      Prev = Next;
    }
    QualifierId Const;
    QS.lookup("const", Const);
    Sys.addLeq(QualExpr::makeVar(Prev),
               QualExpr::makeConst(QS.notQual(Const)), {"cap"});
    bool Ok = Sys.solve();
    benchmark::DoNotOptimize(Ok);
    benchmark::DoNotOptimize(Sys.upper(First));
  }
  State.SetItemsProcessed(static_cast<int64_t>(State.iterations()) * N);
}
BENCHMARK(BM_UpperBoundBackward)->Range(1 << 8, 1 << 17);

void BM_IncrementalResolve(benchmark::State &State) {
  // Re-solve cost after adding a small batch to a large solved system:
  // should be proportional to the batch, not the system.
  QualifierSet QS = makeQuals();
  unsigned N = 1 << 16;
  ConstraintSystem Sys(QS);
  Lcg R;
  std::vector<QualVarId> Vars;
  for (unsigned I = 0; I != N; ++I)
    Vars.push_back(Sys.freshVar());
  for (unsigned I = 1; I != N; ++I)
    Sys.addLeq(QualExpr::makeVar(Vars[R.below(I)]),
               QualExpr::makeVar(Vars[I]), {"edge"});
  Sys.solve();
  for (auto _ : State) {
    for (unsigned I = 0; I != 16; ++I) {
      QualVarId V = Sys.freshVar();
      Sys.addLeq(QualExpr::makeVar(Vars[R.below(N)]), QualExpr::makeVar(V),
                 {"inc"});
    }
    bool Ok = Sys.solve();
    benchmark::DoNotOptimize(Ok);
  }
  State.SetItemsProcessed(static_cast<int64_t>(State.iterations()) * 16);
}
BENCHMARK(BM_IncrementalResolve);

void BM_DisabledTraceScope(benchmark::State &State) {
  // Raw per-scope cost of instrumentation when tracing is off: one relaxed
  // load in the constructor, one branch in the destructor. This is the
  // price every instrumented phase pays in an un-traced run, so it must
  // stay in the nanosecond range.
  Tracer::instance().setEnabled(false);
  MetricsRegistry::setCollecting(false);
  for (auto _ : State) {
    TraceScope Scope("bench.disabled", "bench");
    benchmark::DoNotOptimize(Scope);
    traceInstant("bench.disabled.instant", "bench");
  }
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_DisabledTraceScope);

void BM_SolveObservability(benchmark::State &State) {
  // End-to-end ablation for the observability hooks in the solve path:
  // arg 0 runs with every sink off (the default production configuration),
  // arg 1 with the tracer and metrics collection both on. The arg-0 numbers
  // must match BM_SolveChain at the same size; the delta to arg 1 is the
  // full cost of recording.
  QualifierSet QS = makeQuals();
  unsigned N = 1 << 12;
  bool Observe = State.range(0);
  Tracer::instance().setEnabled(Observe);
  MetricsRegistry::setCollecting(Observe);
  for (auto _ : State) {
    Tracer::instance().clear(); // keep the event buffer from growing
    ConstraintSystem Sys(QS);
    QualVarId Prev = Sys.freshVar();
    Sys.addLeq(QualExpr::makeConst(QS.valueWithPresent({0})),
               QualExpr::makeVar(Prev), {"seed"});
    for (unsigned I = 1; I != N; ++I) {
      QualVarId Next = Sys.freshVar();
      Sys.addLeq(QualExpr::makeVar(Prev), QualExpr::makeVar(Next), {"edge"});
      Prev = Next;
    }
    bool Ok = Sys.solve();
    benchmark::DoNotOptimize(Ok);
    benchmark::DoNotOptimize(Sys.lower(Prev));
  }
  Tracer::instance().setEnabled(false);
  Tracer::instance().clear();
  MetricsRegistry::setCollecting(false);
  State.SetItemsProcessed(static_cast<int64_t>(State.iterations()) * N);
}
BENCHMARK(BM_SolveObservability)->Arg(0)->Arg(1);

void BM_HistogramRecord(benchmark::State &State) {
  // The per-request cost of qualsd's always-on latency telemetry: one live
  // Histogram::record(), what every served request pays for its p50/p99
  // visibility.
  Histogram H;
  uint64_t Value = 1;
  for (auto _ : State) {
    H.record(Value);
    Value = (Value * 2862933555777941757ull + 3037000493ull) >> 32;
  }
  benchmark::DoNotOptimize(H.count());
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_HistogramRecord);

void BM_SchemeGeneralizeInstantiate(benchmark::State &State) {
  // Generalize a body-sized subgraph down to interface summaries, then
  // instantiate repeatedly -- the poly inference inner loop.
  QualifierSet QS = makeQuals();
  unsigned BodySize = State.range(0);
  for (auto _ : State) {
    ConstraintSystem Sys(QS);
    QualTypeFactory Factory;
    TypeCtor Int("int", {});
    TypeCtor Fn("->", {Variance::Contravariant, Variance::Covariant},
                PrintStyle::Infix);
    Watermark Mark = takeWatermark(Sys);
    QualVarId P = Sys.freshVar();
    QualVarId Ret = Sys.freshVar();
    // Internal chain p -> ... -> ret to be compressed away.
    QualVarId Prev = P;
    for (unsigned I = 0; I != BodySize; ++I) {
      QualVarId Next = Sys.freshVar();
      Sys.addLeq(QualExpr::makeVar(Prev), QualExpr::makeVar(Next), {"body"});
      Prev = Next;
    }
    Sys.addLeq(QualExpr::makeVar(Prev), QualExpr::makeVar(Ret), {"body"});
    QualType PT = Factory.make(QualExpr::makeVar(P), &Int);
    QualType RT = Factory.make(QualExpr::makeVar(Ret), &Int);
    QualType FnTy =
        Factory.make(QualExpr::makeVar(Sys.freshVar()), &Fn, {PT, RT});
    QualScheme S = QualScheme::generalize(Sys, FnTy, Mark);
    for (unsigned Use = 0; Use != 32; ++Use) {
      QualType T = S.instantiate(Sys, Factory);
      benchmark::DoNotOptimize(T);
    }
    bool Ok = Sys.solve();
    benchmark::DoNotOptimize(Ok);
  }
  State.SetItemsProcessed(static_cast<int64_t>(State.iterations()) *
                          BodySize);
}
BENCHMARK(BM_SchemeGeneralizeInstantiate)->Range(1 << 4, 1 << 12);

} // namespace

BENCHMARK_MAIN();
