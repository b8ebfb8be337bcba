//===- examples/const_inference.cpp - Const inference on a C program -------===//
//
// Part of the libquals project, reproducing "A Theory of Type Qualifiers"
// (Foster, Fähndrich, Aiken; PLDI 1999).
//
//===----------------------------------------------------------------------===//
//
// Runs the Section 4 const-inference system over a small C program built
// around the introduction's motivating example (strchr: takes a string,
// returns a pointer into it), comparing monomorphic and polymorphic
// results and printing the annotated prototypes.
//
// Build: cmake --build build && ./build/examples/const_inference
//
//===----------------------------------------------------------------------===//

#include "cfront/FrontEnd.h"
#include "constinf/ConstInfer.h"

#include <cstdio>

using namespace quals;
using namespace quals::cfront;
using namespace quals::constinf;

static const char *Program = R"C(
/* A strchr clone: finds c in s, returning a pointer into s. The C library
 * declares it "char *strchr(const char *s, int c)" and deliberately casts
 * away const -- the paper's introduction explains why: C's type system is
 * monomorphic in qualifiers. */
char *find_char(char *s, int c) {
  while (*s && *s != c)
    s = s + 1;
  return s;
}

/* A reading client: could use a const string. */
int count_char(char *text, int c) {
  int n = 0;
  char *p = find_char(text, c);
  while (*p) {
    n = n + 1;
    p = find_char(p + 1, c);
  }
  return n;
}

/* A writing client: replaces the first occurrence. */
void replace_char(char *buf, int from, int to) {
  char *p = find_char(buf, from);
  if (*p)
    *p = to;
}

/* Plain helpers. */
int sum(const int *v, int n) {
  int i; int t = 0;
  for (i = 0; i < n; i++)
    t = t + v[i];
  return t;
}

void fill(int *v, int n, int x) {
  int i;
  for (i = 0; i < n; i++)
    v[i] = x;
}
)C";

static const char *className(PosClass C) {
  switch (C) {
  case PosClass::MustConst:    return "must be const";
  case PosClass::MustNonConst: return "must NOT be const";
  case PosClass::Either:       return "could be either";
  }
  return "?";
}

static void report(TranslationUnit &TU, DiagnosticEngine &Diags,
                   bool Polymorphic) {
  ConstInference::Options Opts;
  Opts.Polymorphic = Polymorphic;
  ConstInference Inf(TU, Diags, Opts);
  if (!Inf.run()) {
    std::printf("inference failed:\n%s\n", Diags.renderAll().c_str());
    return;
  }
  std::printf("-- %s inference --\n",
              Polymorphic ? "polymorphic" : "monomorphic");
  for (const InterestingPos &Pos : Inf.positions()) {
    std::string Where =
        Pos.ParamIndex < 0
            ? "result"
            : "param " + std::to_string(Pos.ParamIndex);
    std::printf("  %-14s %-8s depth %u: %-18s%s\n",
                std::string(Pos.Fn->getName()).c_str(), Where.c_str(),
                Pos.Depth, className(Inf.classify(Pos)),
                Pos.DeclaredConst ? "  [declared]" : "");
  }
  ConstCounts C = Inf.counts();
  std::printf("  counts: declared %u, possible-const %u, total %u\n\n",
              C.Declared, C.PossibleConst, C.Total);
  if (Polymorphic) {
    std::printf("annotated prototypes (const inserted wherever allowed):\n%s\n",
                Inf.renderAnnotatedPrototypes().c_str());
  }
}

int main() {
  std::printf("== const inference example ==\n\n%s\n", Program);

  FrontEnd FE;
  if (!FE.parse("example.c", Program)) {
    std::printf("parse failed:\n%s\n", FE.Diags.renderAll().c_str());
    return 1;
  }
  if (!FE.analyze()) {
    std::printf("sema failed:\n%s\n", FE.Diags.renderAll().c_str());
    return 1;
  }

  report(FE.TU, FE.Diags, /*Polymorphic=*/false);
  report(FE.TU, FE.Diags, /*Polymorphic=*/true);

  std::printf("note how polymorphism lets find_char keep an unconstrained\n"
              "parameter even though replace_char writes through its "
              "result,\nwhile the monomorphic analysis pins count_char's "
              "text as well.\n");
  return 0;
}
