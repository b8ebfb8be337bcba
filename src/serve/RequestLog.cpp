//===- serve/RequestLog.cpp - Structured NDJSON request log ---------------===//
//
// Part of the libquals project, reproducing "A Theory of Type Qualifiers"
// (Foster, Fähndrich, Aiken; PLDI 1999).
//
//===----------------------------------------------------------------------===//

#include "serve/RequestLog.h"

#include "support/Trace.h"

using namespace quals;

std::string RequestLog::render(const RequestLogEvent &Ev) {
  std::string Out = "{\"seq\":" + std::to_string(Ev.Seq) + ",\"id\":";
  Out += Ev.HasId ? std::to_string(Ev.Id) : "null";
  Out += ",\"method\":\"" + jsonEscape(Ev.Method) + "\",\"ok\":";
  Out += Ev.Ok ? "true" : "false";
  if (Ev.HasExit)
    Out += ",\"exit\":" + std::to_string(Ev.Exit);
  if (!Ev.HashPrefix.empty())
    Out += ",\"hash\":\"" + jsonEscape(Ev.HashPrefix) + "\"";
  if (Ev.Cache)
    Out += ",\"cache\":\"" + std::string(Ev.Cache) + "\"";
  Out += ",\"bytes_in\":" + std::to_string(Ev.BytesIn) +
         ",\"bytes_out\":" + std::to_string(Ev.BytesOut) +
         ",\"queue_us\":" + std::to_string(Ev.QueueUs) +
         ",\"service_us\":" + std::to_string(Ev.ServiceUs);
  if (!Ev.PhasesUs.empty()) {
    Out += ",\"phases\":{";
    bool First = true;
    for (const auto &KV : Ev.PhasesUs) {
      if (!First)
        Out += ',';
      First = false;
      Out += '"' + jsonEscape(KV.first) + "\":" + std::to_string(KV.second);
    }
    Out += '}';
  }
  Out += '}';
  return Out;
}

void RequestLog::write(const RequestLogEvent &Ev) {
  if (!Out)
    return;
  std::string Line = render(Ev);
  Line += '\n';
  std::lock_guard<std::mutex> Lock(Mutex);
  // One write, one flush: a killed daemon leaves whole lines behind.
  Out->write(Line.data(), static_cast<std::streamsize>(Line.size()));
  Out->flush();
}
