//===- perfbench/main.cpp - Pipeline benchmark entry point ----------------===//
//
// Part of the libquals project, reproducing "A Theory of Type Qualifiers"
// (Foster, Fähndrich, Aiken; PLDI 1999).
//
//===----------------------------------------------------------------------===//
//
//   perfbench --workload whole_poly|edit_loop|split_link --seed N
//             --seconds S --trace 0|1 [--trace-out FILE]
//
// Prints two JSON lines. The first holds the host and input facts, the
// workload's own named metrics with units, fail_frac and notes; the last is
// the result: {"correct","attempted","failed","metrics"}, whose metrics are
// the end-to-end set (--trace 0) or the per-layer set (--trace 1) listed in
// BENCHMARK.json. Exits 1 if any output check failed, 2 on bad usage or a
// build that is not Release.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>

using namespace perfbench;

namespace {

struct MetricDef {
  const char *Name;
  const char *Unit;
};

/// Must match BENCHMARK.json's end_to_end list.
const MetricDef EndToEnd[] = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"op_p50_ms", "ms"},
};

/// Must match BENCHMARK.json's per_layer list. Layers a workload does not
/// touch report 0.
const MetricDef PerLayer[] = {
    {"cfront.self_ms", "ms"},
    {"cfront.parse_ms", "ms"},
    {"cfront.sema_ms", "ms"},
    {"cfront.lex_ms", "ms"},
    {"cfront.parse_ns_per_line", "ns/line"},
    {"cfront.arena_mb", "MB"},
    {"constinf.self_ms", "ms"},
    {"constinf.run_ms", "ms"},
    {"constinf.ref_types_ms", "ms"},
    {"constinf.fdg_ms", "ms"},
    {"constinf.cgen_ms", "ms"},
    {"constinf.classify_ms", "ms"},
    {"constinf.render_ms", "ms"},
    {"constinf.vars", "count"},
    {"constinf.constraints", "count"},
    {"constinf.constraints_per_kloc", "count/kloc"},
    {"constinf.cgen_arena_mb", "MB"},
    {"constinf.rss_bytes_per_constraint", "B"},
    {"qual.self_ms", "ms"},
    {"qual.solve_ms", "ms"},
    {"qual.edge_visits", "count"},
    {"qual.solve_share", "ratio"},
    {"link.self_ms", "ms"},
    {"link.build_summary_ms", "ms"},
    {"link.serialize_ms", "ms"},
    {"link.deserialize_ms", "ms"},
    {"link.link_ms", "ms"},
    {"link.merge_ms", "ms"},
    {"link.unify_ms", "ms"},
    {"link.vars", "count"},
    {"link.constraints", "count"},
    {"link.kept_var_ratio", "ratio"},
    {"link.bytes_per_constraint", "B"},
    {"link.qsum_mb", "MB"},
    {"serve.self_ms", "ms"},
    {"serve.hit_ratio", "ratio"},
    {"serve.delta_incremental_ratio", "ratio"},
    {"serve.reused_sccs_per_delta", "count"},
    {"serve.dirty_sccs_per_delta", "count"},
    {"serve.delta_parse_ms", "ms"},
    {"serve.delta_cgen_ms", "ms"},
    {"serve.delta_solve_ms", "ms"},
    {"serve.protocol_us", "us"},
    {"support.self_ms", "ms"},
    {"support.pool_busy_frac", "ratio"},
    {"support.pool_wait_ms", "ms"},
    {"support.arena_share", "ratio"},
    {"support.teardown_ms", "ms"},
    {"unattributed_frac", "ratio"},
    {"trace_overhead", "ratio"},
};

int usage(const char *Why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "whole_poly|edit_loop|split_link --seed N --seconds S "
               "--trace 0|1 [--trace-out FILE]\n",
               Why);
  return 2;
}

std::string jsonString(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    if (static_cast<unsigned char>(C) >= 0x20)
      Out += C;
  }
  return Out + "\"";
}

std::string number(double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.10g", V);
  return Buf;
}

} // namespace

int main(int argc, char **argv) {
  Options O;
  bool HaveSeed = false, HaveSeconds = false, HaveTrace = false;
  for (int I = 1; I < argc; ++I) {
    auto Value = [&]() -> const char * {
      return I + 1 < argc ? argv[++I] : nullptr;
    };
    const char *Arg = argv[I];
    const char *V = Value();
    if (!V)
      return usage("missing value");
    if (!std::strcmp(Arg, "--workload"))
      O.Workload = V;
    else if (!std::strcmp(Arg, "--seed"))
      O.Seed = std::strtoull(V, nullptr, 10), HaveSeed = true;
    else if (!std::strcmp(Arg, "--seconds"))
      O.Seconds = std::strtod(V, nullptr), HaveSeconds = true;
    else if (!std::strcmp(Arg, "--trace"))
      O.Trace = std::strcmp(V, "0") != 0, HaveTrace = true;
    else if (!std::strcmp(Arg, "--trace-out"))
      O.TraceOut = V;
    else
      return usage("unknown option");
  }
  if (!HaveSeed || !HaveSeconds || !HaveTrace || O.Seconds <= 0)
    return usage("--seed, --seconds and --trace are required");

  // Timings from an unoptimized build would be meaningless.
#ifndef NDEBUG
  return usage("refusing to time a build with assertions enabled");
#endif
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0)
    return usage("refusing to time a non-Release build");

  Report R;
  int Status;
  if (O.Workload == "whole_poly")
    Status = runWholePoly(O, R);
  else if (O.Workload == "edit_loop")
    Status = runEditLoop(O, R);
  else if (O.Workload == "split_link")
    Status = runSplitLink(O, R);
  else
    return usage("unknown workload");
  if (Status != 0)
    return Status;

  // Every listed metric is present; nothing unlisted slips through.
  std::string Metrics;
  size_t Known = 0;
  const MetricDef *Begin = O.Trace ? std::begin(PerLayer) : std::begin(EndToEnd);
  const MetricDef *End = O.Trace ? std::end(PerLayer) : std::end(EndToEnd);
  for (const MetricDef *M = Begin; M != End; ++M) {
    auto It = R.Metrics.find(M->Name);
    double V = It == R.Metrics.end() ? 0.0 : It->second;
    Known += It != R.Metrics.end();
    Metrics += std::string(Metrics.empty() ? "" : ",") + jsonString(M->Name) +
               ":{\"value\":" + number(V) + ",\"unit\":" + jsonString(M->Unit) +
               "}";
  }
  if (Known != R.Metrics.size()) {
    std::fprintf(stderr, "perfbench: a workload set an unlisted metric\n");
    return 2;
  }

  std::string Detail = "{\"workload\":" + jsonString(O.Workload) +
                       ",\"seed\":" + std::to_string(O.Seed) +
                       ",\"seconds\":" + number(O.Seconds) +
                       ",\"trace\":" + (O.Trace ? "true" : "false") +
                       ",\"host\":{\"hardware_threads\":" +
                       std::to_string(std::thread::hardware_concurrency()) +
                       ",\"compiler\":" + jsonString(PERFBENCH_COMPILER) +
                       ",\"build_type\":" + jsonString(PERFBENCH_BUILD_TYPE) +
                       "},\"inputs\":[";
  for (size_t I = 0; I != R.Inputs.size(); ++I) {
    const auto &[Name, Facts] = R.Inputs[I];
    Detail += std::string(I ? "," : "") + "{\"name\":" + jsonString(Name) +
              ",\"lines\":" + number(Facts[0]) + ",\"vars\":" +
              number(Facts[1]) + ",\"constraints\":" + number(Facts[2]) + "}";
  }
  double FailFrac = static_cast<double>(R.Failed) / R.Attempted;
  Detail += "],\"named\":{\"fail_frac\":{\"value\":" + number(FailFrac) +
            ",\"unit\":\"ratio\"}";
  for (const auto &[Name, VU] : R.Named)
    Detail += "," + jsonString(Name) + ":{\"value\":" + number(VU.first) +
              ",\"unit\":" + jsonString(VU.second) + "}";
  if (O.Trace)
    R.Notes.push_back("cfront.lex_ms comes from the lex pre-scan, which runs "
                      "only when observability is on (traced cycles)");
  Detail += "},\"notes\":[";
  for (size_t I = 0; I != R.Notes.size(); ++I)
    Detail += std::string(I ? "," : "") + jsonString(R.Notes[I]);
  Detail += "]}";

  std::printf("%s\n", Detail.c_str());
  std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
              "\"metrics\":{%s}}\n",
              R.Failed ? "false" : "true",
              static_cast<unsigned long long>(R.Attempted),
              static_cast<unsigned long long>(R.Failed), Metrics.c_str());
  return R.Failed ? 1 : 0;
}
