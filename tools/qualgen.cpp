//===- tools/qualgen.cpp - Synthetic benchmark generator CLI ---------------===//
//
// Part of the libquals project, reproducing "A Theory of Type Qualifiers"
// (Foster, Fähndrich, Aiken; PLDI 1999).
//
//===----------------------------------------------------------------------===//
//
// Emits deterministic synthetic C benchmarks:
//
//   qualgen [--lines N] [--seed S] [--const-rate R] [--writer-rate R]
//           [--corpus N [--out-dir DIR]] [--tus N [--out-dir DIR]] [-jN]
//           [--trace-out=file] [--metrics[=table|json]]
//           [out1.c out2.c ...]
//
// With no positional arguments one program goes to stdout (the classic
// mode). Positional arguments name output files: each gets an independent
// program (per-file seed derived from --seed and the file's position).
// --corpus N emits N programs named corpus_0000.c .. into --out-dir
// (default "."), creating the directory if needed -- the synthetic stand-in
// for the paper's multi-program benchmark suite, sized per file by
// --lines. -jN generates output files on N pool workers; every file
// depends only on its own seed, so the corpus is bit-identical for any N.
// --tus N instead splits ONE program across N translation units
// tu_0000.c .. with cross-file extern declarations -- the
// separate-compilation workload for qualcc --emit-summary-dir and quallink
// (docs/LINK.md); --lines sizes the whole program, not each file.
//
// Note --metrics prints to stdout after the program text; when piping the
// program into another tool, prefer --trace-out (which writes to a file).
//
// Pipe into qualcc to reproduce Table 2 rows by hand:
//
//   qualgen --lines 8741 --seed 1004 > bench.c && qualcc bench.c
//
// Exit status: 0, or 1 if any output file cannot be written (all files are
// still attempted).
//
//===----------------------------------------------------------------------===//

#include "gen/SynthGen.h"

#include "BatchDriver.h"
#include "ToolFlags.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

using namespace quals;
using namespace quals::synth;

/// Generates the program for \p Index and writes it to \p Path; errors are
/// buffered into \p R (runs on a pool worker at -jN).
static void generateOneFile(const std::string &Path, unsigned Index,
                            uint64_t Seed, unsigned Lines, double ConstRate,
                            double WriterRate, batch::FileResult &R) {
  SynthParams P = corpusFileParams(Seed, Index, Lines);
  if (ConstRate >= 0)
    P.ConstDeclRate = ConstRate;
  if (WriterRate >= 0)
    P.WriterRate = WriterRate;
  SynthProgram Prog = generateProgram(P);
  std::ofstream Out(Path, std::ios::binary);
  if (!Out || !(Out << Prog.Source)) {
    appendf(R.Err, "qualgen: cannot write '%s'\n", Path.c_str());
    R.ExitCode = 1;
  }
}

static const char *kOptionsHelp =
    "  --lines N        approximate program size in lines (default 2000)\n"
    "  --seed S         PRNG seed; every output is a pure function of it\n"
    "  --const-rate R   fraction of declarations spelled const\n"
    "  --writer-rate R  fraction of functions that write through pointers\n"
    "  --corpus N       emit N programs corpus_0000.c.. into --out-dir\n"
    "  --tus N          split one program across N files tu_0000.c..\n"
    "                   with cross-file externs (docs/LINK.md)\n"
    "  --out-dir DIR    corpus/TU destination directory (default \".\")\n";

int main(int argc, char **argv) {
  unsigned Lines = 2000;
  uint64_t Seed = 1;
  double ConstRate = -1, WriterRate = -1;
  unsigned Corpus = 0;
  unsigned Tus = 0;
  std::string OutDir = ".";
  bool HaveOutDir = false;
  std::vector<std::string> OutFiles;
  // The generator parses no input, so the --limit-* budgets are never
  // consulted; the flags are still accepted so scripted pipelines can pass
  // one --limit-* set to every tool uniformly.
  ToolFlags Common("qualgen", "[out.c...]", kOptionsHelp);
  for (int I = 1; I != argc; ++I) {
    if (Common.parseCommon(argc, argv, I)) {
      if (Common.exitNow())
        return Common.exitStatus();
    } else if (!std::strcmp(argv[I], "--lines") && I + 1 < argc)
      Lines = std::strtoul(argv[++I], nullptr, 10);
    else if (!std::strcmp(argv[I], "--seed") && I + 1 < argc)
      Seed = std::strtoull(argv[++I], nullptr, 10);
    else if (!std::strcmp(argv[I], "--const-rate") && I + 1 < argc)
      ConstRate = std::strtod(argv[++I], nullptr);
    else if (!std::strcmp(argv[I], "--writer-rate") && I + 1 < argc)
      WriterRate = std::strtod(argv[++I], nullptr);
    else if (!std::strcmp(argv[I], "--corpus") && I + 1 < argc)
      Corpus = std::strtoul(argv[++I], nullptr, 10);
    else if (!std::strcmp(argv[I], "--tus") && I + 1 < argc)
      Tus = std::strtoul(argv[++I], nullptr, 10);
    else if (!std::strcmp(argv[I], "--out-dir") && I + 1 < argc) {
      OutDir = argv[++I];
      HaveOutDir = true;
    } else if (argv[I][0] == '-')
      return Common.usageError(argv[I]);
    else
      OutFiles.push_back(argv[I]);
  }
  unsigned Jobs = Common.jobs();
  if (Corpus && !OutFiles.empty())
    return Common.fail(
        "--corpus and positional output files are mutually exclusive");
  if (Tus && (Corpus || !OutFiles.empty()))
    return Common.fail(
        "--tus is mutually exclusive with --corpus and output files");
  if (HaveOutDir && !Corpus && !Tus)
    return Common.fail("--out-dir requires --corpus or --tus");
  Common.activate();

  if (Tus) {
    // One program split across N files; the split is a single deterministic
    // generation pass, so there is nothing to parallelize.
    std::error_code Ec;
    std::filesystem::create_directories(OutDir, Ec);
    if (Ec) {
      std::fprintf(stderr, "qualgen: cannot create directory '%s': %s\n",
                   OutDir.c_str(), Ec.message().c_str());
      return 1;
    }
    SynthParams P = paramsForLines(Seed, Lines);
    if (ConstRate >= 0)
      P.ConstDeclRate = ConstRate;
    if (WriterRate >= 0)
      P.WriterRate = WriterRate;
    std::vector<SynthProgram> Split = generateTuSplit(P, Tus);
    int Status = 0;
    for (unsigned I = 0; I != Split.size(); ++I) {
      std::string Path =
          (std::filesystem::path(OutDir) / tuFileName(I)).string();
      std::ofstream Out(Path, std::ios::binary);
      if (!Out || !(Out << Split[I].Source)) {
        std::fprintf(stderr, "qualgen: cannot write '%s'\n", Path.c_str());
        Status = 1;
      }
    }
    return Status;
  }

  if (Corpus) {
    std::error_code Ec;
    std::filesystem::create_directories(OutDir, Ec);
    if (Ec) {
      std::fprintf(stderr, "qualgen: cannot create directory '%s': %s\n",
                   OutDir.c_str(), Ec.message().c_str());
      return 1;
    }
    for (unsigned I = 0; I != Corpus; ++I)
      OutFiles.push_back((std::filesystem::path(OutDir) / corpusFileName(I))
                             .string());
  }

  if (OutFiles.empty()) {
    // Classic mode: one program to stdout.
    SynthParams P = paramsForLines(Seed, Lines);
    if (ConstRate >= 0)
      P.ConstDeclRate = ConstRate;
    if (WriterRate >= 0)
      P.WriterRate = WriterRate;
    SynthProgram Prog = generateProgram(P);
    std::fputs(Prog.Source.c_str(), stdout);
    return 0;
  }

  batch::BatchConfig Config;
  Config.Jobs = Jobs;
  Config.Category = "qualgen";
  return batch::runBatch(
      OutFiles, Config,
      [&](const std::string &Path, size_t Index, batch::FileResult &R) {
        generateOneFile(Path, static_cast<unsigned>(Index), Seed, Lines,
                        ConstRate, WriterRate, R);
      });
}
