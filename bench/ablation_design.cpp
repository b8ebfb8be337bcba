//===- bench/ablation_design.cpp - Section 4.2 design-decision ablations ---===//
//
// Part of the libquals project, reproducing "A Theory of Type Qualifiers"
// (Foster, Fähndrich, Aiken; PLDI 1999).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Quantifies the Section 4.2 design decisions (see DESIGN.md) on the
/// benchmark suite by toggling each off in isolation:
///
///   baseline         the paper's rules (polymorphic)
///   mono             no qualifier polymorphism (the Table 2 comparison)
///   callers-first    FDG traversed in the wrong order: callers see no
///                    schemes, so polymorphism degenerates toward mono
///   casts-keep-flow  explicit casts no longer sever qualifier flow
///   trusting-libs    undefined functions no longer pin their parameters
///                    (unsound; shows the cost of conservatism)
///   fields-unshared  struct fields get per-access qualifiers (unsound;
///                    shows why the paper requires sharing)
///
/// Reported: possible-const counts per benchmark and configuration.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "support/TextTable.h"

#include <cstdio>

using namespace quals;
using namespace quals::bench;
using namespace quals::constinf;

namespace {

struct Config {
  const char *Name;
  ConstInference::Options Opts;
};

std::vector<Config> configs() {
  std::vector<Config> Result;
  Config Baseline{"baseline", {}};
  Result.push_back(Baseline);

  Config Mono = Baseline;
  Mono.Name = "mono";
  Mono.Opts.Polymorphic = false;
  Result.push_back(Mono);

  Config CallersFirst = Baseline;
  CallersFirst.Name = "callers-first";
  CallersFirst.Opts.CalleesFirst = false;
  Result.push_back(CallersFirst);

  Config CastsKeep = Baseline;
  CastsKeep.Name = "casts-keep-flow";
  CastsKeep.Opts.CastsSeverFlow = false;
  Result.push_back(CastsKeep);

  Config Trusting = Baseline;
  Trusting.Name = "trusting-libs";
  Trusting.Opts.ConservativeLibraries = false;
  Result.push_back(Trusting);

  Config Unshared = Baseline;
  Unshared.Name = "fields-unshared";
  Unshared.Opts.StructFieldsShared = false;
  Result.push_back(Unshared);
  return Result;
}

} // namespace

int main() {
  std::printf("Design-decision ablation: possible-const counts per "
              "configuration\n\n");

  std::vector<Config> Configs = configs();
  TextTable T;
  T.addColumn("Name");
  T.addColumn("Total", Align::Right);
  for (const Config &C : Configs)
    T.addColumn(C.Name, Align::Right);

  bool AllOk = true;
  for (const BenchmarkSpec &Spec : suite()) {
    synth::SynthProgram Prog = generate(Spec);
    auto Compiledp = compile(Spec.Name, Prog.Source);
    if (!Compiledp->Ok) {
      AllOk = false;
      continue;
    }
    std::vector<std::string> Row{Spec.Name};
    std::string Total;
    for (const Config &C : Configs) {
      ConstInference Inf(Compiledp->TU, Compiledp->Diags, C.Opts);
      if (!Inf.run()) {
        // Ablations that weaken soundness can surface contradictions on
        // correct programs (e.g. casts-keep-flow turns legal const-removal
        // casts into errors). Report that as "err" rather than aborting.
        Row.push_back("err");
        Compiledp->Diags.clear();
        continue;
      }
      ConstCounts Counts = Inf.counts();
      Total = std::to_string(Counts.Total);
      Row.push_back(std::to_string(Counts.PossibleConst));
    }
    Row.insert(Row.begin() + 1, Total);
    T.addRow(std::move(Row));
  }
  std::printf("%s\n", T.render().c_str());
  std::printf(
      "reading guide: mono and callers-first should trail the baseline\n"
      "(polymorphism and the callees-first FDG order both matter);\n"
      "trusting-libs and fields-unshared overshoot it (they drop sound\n"
      "constraints); casts-keep-flow may reject correct programs that\n"
      "cast away const.\n");
  return AllOk ? 0 : 1;
}
