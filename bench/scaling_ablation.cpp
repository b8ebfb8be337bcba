//===- bench/scaling_ablation.cpp - Inference-time scaling ablation --------===//
//
// Part of the libquals project, reproducing "A Theory of Type Qualifiers"
// (Foster, Fähndrich, Aiken; PLDI 1999).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Checks two Section 4.4 claims on a controlled size sweep:
///
///   "the inference scales roughly linearly with the program size"
///   "the polymorphic inference takes at most 3 times longer than the
///    monomorphic inference"
///
/// Programs are generated at sizes from 1k to 40k lines with identical
/// feature rates; per-size we report mono/poly time, time per kLoC (flat =>
/// linear), and the poly/mono ratio. A least-squares log-log slope near 1.0
/// confirms linearity.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "support/TextTable.h"

#include <cmath>
#include <cstdio>

using namespace quals;
using namespace quals::bench;

int main() {
  std::printf("Scaling ablation: inference time vs program size\n\n");

  const unsigned Sizes[] = {1000, 2000, 4000, 8000, 16000, 28000, 40000};

  TextTable T;
  T.addColumn("Lines", Align::Right);
  T.addColumn("Qual vars", Align::Right);
  T.addColumn("Constraints", Align::Right);
  T.addColumn("Mono (s)", Align::Right);
  T.addColumn("Poly (s)", Align::Right);
  T.addColumn("Mono ms/kLoC", Align::Right);
  T.addColumn("Poly ms/kLoC", Align::Right);
  T.addColumn("Poly/Mono", Align::Right);

  std::vector<double> LogSize, LogMono, LogPoly;
  bool AllOk = true;
  double MaxRatio = 0;

  for (unsigned Lines : Sizes) {
    synth::SynthParams P = synth::paramsForLines(7000 + Lines, Lines);
    synth::SynthProgram Prog = synth::generateProgram(P);
    auto C = compile("sweep-" + std::to_string(Lines), Prog.Source);
    if (!C->Ok) {
      AllOk = false;
      continue;
    }
    InferRun Mono = inferTimed(*C, false, /*Repeats=*/5);
    InferRun Poly = inferTimed(*C, true, /*Repeats=*/5);
    if (!Mono.Ok || !Poly.Ok) {
      AllOk = false;
      continue;
    }
    double Ratio = Mono.Seconds > 0 ? Poly.Seconds / Mono.Seconds : 0;
    MaxRatio = std::max(MaxRatio, Ratio);
    T.addRow({std::to_string(Prog.LineCount), std::to_string(Poly.NumVars),
              std::to_string(Poly.NumConstraints), fmt(Mono.Seconds, 4),
              fmt(Poly.Seconds, 4),
              fmt(1e6 * Mono.Seconds / Prog.LineCount, 2),
              fmt(1e6 * Poly.Seconds / Prog.LineCount, 2),
              fmt(Ratio, 2) + "x"});
    LogSize.push_back(std::log(Prog.LineCount));
    LogMono.push_back(std::log(Mono.Seconds));
    LogPoly.push_back(std::log(Poly.Seconds));
  }
  std::printf("%s\n", T.render().c_str());

  auto slope = [](const std::vector<double> &X, const std::vector<double> &Y) {
    double N = X.size(), SX = 0, SY = 0, SXX = 0, SXY = 0;
    for (size_t I = 0; I != X.size(); ++I) {
      SX += X[I];
      SY += Y[I];
      SXX += X[I] * X[I];
      SXY += X[I] * Y[I];
    }
    return (N * SXY - SX * SY) / (N * SXX - SX * SX);
  };
  if (LogSize.size() >= 2) {
    std::printf("log-log slope (1.0 = linear): mono %.2f, poly %.2f\n",
                slope(LogSize, LogMono), slope(LogSize, LogPoly));
  }
  std::printf("max poly/mono time ratio across sweep: %.2fx "
              "(paper: at most 3x)\n",
              MaxRatio);
  return AllOk ? 0 : 1;
}
