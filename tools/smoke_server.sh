#!/usr/bin/env bash
# smoke_server.sh - end-to-end exercise of the qualsd analysis server.
#
#   smoke_server.sh <qualsd> <qualcc> <qualcheck> <programs-dir>
#
# Asserts the serving guarantees (docs/SERVER.md) over the real binary:
# (a) warm answers are byte-identical to cold ones -- within one process
# (in-memory cache) and at every worker count; (b) the cache is genuinely hit, visible both in the `stats`
# response and in --metrics=json counters, which qualsd routes to *stderr*
# so stdout stays pure NDJSON responses (JSON validation skipped without
# python3); (c) a `shutdown` request stops the daemon with exit 0 and
# nothing after its response; (d) a served analyze matches what qualcc or
# qualcheck prints for the same file, on every example in every
# configuration; (e) the editor loop: analyze a buffer, edit one
# function, analyze-delta the edit -- the response is byte-identical to a
# cold analyze of the edited buffer on a fresh daemon, and the stats/metrics
# count the one analyze-delta request (docs/SERVER.md); (f) the
# telemetry surface (docs/OBSERVABILITY.md): under -j4 with --request-log,
# the `metrics` response carries latency histograms whose buckets sum to
# the request count, the `stats` latency block agrees, the log has exactly
# one well-formed event per request with seq 1..N, and stdout still parses
# line-for-line as responses; (g) the socket transport (--listen): a
# regular file at the socket path is refused and left intact, the same
# request stream over a unix-domain socket (its path containing ':') is
# byte-identical to stdio, and a `shutdown` over a second connection stops
# the daemon with exit 0 (skipped without python3, which drives the socket
# client); (h) removed options (--cache-dir, --warm, --slow-ms) exit 1 as
# unknown. Wired into ctest as cli.smoke_server by tools/CMakeLists.txt.

set -euo pipefail

if [ $# -ne 4 ]; then
    echo "usage: $0 <qualsd> <qualcc> <qualcheck> <programs-dir>" >&2
    exit 2
fi

QUALSD=$1
QUALCC=$2
QUALCHECK=$3
PROGRAMS=$4
FAILED=0

WORKDIR=$(mktemp -d)
trap 'rm -rf "$WORKDIR"' EXIT

# --- request stream over the example corpus ------------------------------
REQS="$WORKDIR/requests.ndjson"
: >"$REQS"
ID=0
NREQ=0
for F in "$PROGRAMS"/*.c "$PROGRAMS"/*.q; do
    [ -e "$F" ] || continue
    case "$F" in
        *.q) LANG_FIELD=',"language":"lambda"' ;;
        *)   LANG_FIELD='' ;;
    esac
    ID=$((ID + 1))
    printf '{"id":%d,"method":"analyze","params":{"path":"%s"%s}}\n' \
        "$ID" "$F" "$LANG_FIELD" >>"$REQS"
    NREQ=$((NREQ + 1))
done
if [ "$NREQ" -lt 3 ]; then
    echo "FAIL: need at least three example programs in $PROGRAMS" >&2
    exit 2
fi

# --- (a1) in-process warm hits: same stream twice, one daemon ------------
cat "$REQS" "$REQS" >"$WORKDIR/doubled.ndjson"
STATUS=0
"$QUALSD" <"$WORKDIR/doubled.ndjson" >"$WORKDIR/doubled.out" || STATUS=$?
if [ "$STATUS" -ne 0 ]; then
    echo "FAIL: qualsd exited $STATUS on end of input" >&2
    FAILED=1
fi
head -n "$NREQ" "$WORKDIR/doubled.out" >"$WORKDIR/cold.out"
tail -n "$NREQ" "$WORKDIR/doubled.out" >"$WORKDIR/warm.out"
if ! cmp -s "$WORKDIR/cold.out" "$WORKDIR/warm.out"; then
    echo "FAIL: warm responses differ from cold (in-memory cache)" >&2
    diff "$WORKDIR/cold.out" "$WORKDIR/warm.out" | head >&2 || true
    FAILED=1
fi

# --- (a3) worker-count determinism (fresh caches) ------------------------
"$QUALSD" -j4 <"$REQS" >"$WORKDIR/j4.out"
if ! cmp -s "$WORKDIR/cold.out" "$WORKDIR/j4.out"; then
    echo "FAIL: -j4 responses differ from -j1" >&2
    FAILED=1
fi

# --- (b) cache hits visible in stats and metrics -------------------------
{
    cat "$WORKDIR/doubled.ndjson"
    STATS_ID=$((2 * NREQ + 1))
    printf '{"id":%d,"method":"stats"}\n' "$STATS_ID"
    printf '{"id":%d,"method":"shutdown"}\n' "$((STATS_ID + 1))"
} >"$WORKDIR/metered.ndjson"
STATUS=0
"$QUALSD" --metrics=json <"$WORKDIR/metered.ndjson" \
    >"$WORKDIR/metered.out" 2>"$WORKDIR/metered.err" || STATUS=$?
# --- (c) clean shutdown exit ---------------------------------------------
if [ "$STATUS" -ne 0 ]; then
    echo "FAIL: qualsd exited $STATUS after shutdown request" >&2
    cat "$WORKDIR/metered.err" >&2
    FAILED=1
fi
RESPONSES=$((2 * NREQ + 2))
if ! sed -n "${RESPONSES}p" "$WORKDIR/metered.out" \
        | grep -q '"ok":true'; then
    echo "FAIL: shutdown request was not acknowledged" >&2
    FAILED=1
fi

if command -v python3 >/dev/null 2>&1; then
    python3 - "$WORKDIR/metered.out" "$WORKDIR/metered.err" "$NREQ" \
        <<'PYEOF' || FAILED=1
import json, sys

path, errpath, nreq = sys.argv[1], sys.argv[2], int(sys.argv[3])
lines = open(path).read().splitlines()
# stdout is pure NDJSON responses: one per request, nothing else.
assert len(lines) == 2 * nreq + 2, len(lines)
for line in lines:
    resp = json.loads(line)
    assert "id" in resp and "ok" in resp, resp
responses = lines
# The metrics report goes to stderr, keeping stdout machine-parseable.
errlines = open(errpath).read().splitlines()
start = next(i for i, l in enumerate(errlines) if l.startswith('{"counters"'))
metrics = json.loads("\n".join(errlines[start:]))

stats = json.loads(responses[2 * nreq])
assert stats["ok"], stats
cache = stats["cache"]
# Second pass over the corpus was answered entirely from cache.
assert cache["hits"] == nreq, cache
assert cache["misses"] == nreq, cache
assert cache["entries"] == nreq, cache
assert stats["requests"] == 2 * nreq + 1, stats

counters = metrics["counters"]
assert counters.get("cache.hits") == nreq, counters
assert counters.get("cache.misses") == nreq, counters
assert counters.get("server.requests") == 2 * nreq + 2, counters
assert counters.get("server.errors", 0) == 0, counters
PYEOF
else
    echo "NOTE: python3 unavailable; metrics JSON validation skipped" >&2
fi

# --- (d) served bytes match the batch tools ------------------------------
# Every example in every configuration the protocol offers: each .c file x
# {poly, mono} x {protos or not} against qualcc --quiet with the matching
# --mono/--protos (qualsd omits the timing banner, which is exactly what
# --quiet drops), each .q file x {poly, mono} against qualcheck [--mono].
# stdout, exit code and stderr (after swapping the tool's line prefix for
# "qualsd:") must all match.
if command -v python3 >/dev/null 2>&1; then
    python3 - "$QUALSD" "$QUALCC" "$QUALCHECK" "$PROGRAMS" \
        <<'PYEOF' || FAILED=1
import glob, json, re, subprocess, sys

qualsd, qualcc, qualcheck, programs = sys.argv[1:5]
cases = []  # (tool command, request params, tool's stderr prefix)
for path in sorted(glob.glob(programs + "/*.c")):
    for mono in (False, True):
        for protos in (False, True):
            flags = ["--quiet"] + ["--mono"] * mono + ["--protos"] * protos
            cases.append(([qualcc] + flags + [path],
                          {"path": path, "mono": mono, "protos": protos},
                          "qualcc:"))
for path in sorted(glob.glob(programs + "/*.q")):
    for mono in (False, True):
        cases.append(([qualcheck] + ["--mono"] * mono + [path],
                      {"path": path, "language": "lambda", "mono": mono},
                      "qualcheck:"))
requests = "".join(
    json.dumps({"id": i + 1, "method": "analyze", "params": params}) + "\n"
    for i, (_, params, _) in enumerate(cases))
served = subprocess.run([qualsd], input=requests, capture_output=True,
                        text=True, check=True).stdout.splitlines()
assert len(served) == len(cases), (len(served), len(cases))
failed = 0
for (cmd, _, prefix), line in zip(cases, served):
    resp = json.loads(line)
    tool = subprocess.run(cmd, capture_output=True, text=True)
    want = (tool.stdout, tool.returncode,
            re.sub("(?m)^" + prefix, "qualsd:", tool.stderr))
    got = (resp.get("stdout"), resp.get("exit"), resp.get("stderr"))
    if not resp["ok"] or got != want:
        print("FAIL: qualsd differs from", " ".join(cmd), file=sys.stderr)
        print("  served:", got, "\n  tool:  ", want, file=sys.stderr)
        failed += 1
sys.exit(1 if failed else 0)
PYEOF
else
    echo "NOTE: python3 unavailable; served-vs-tool comparison skipped" >&2
fi

# --- (e) edit loop: analyze, edit one function, analyze-delta ------------
# Inline sources, as an editor integration would send buffers. V2 edits one
# function body (leaf gains a write); everything else is unchanged.
V1='int id(int *p) { return *p; }\nint use(int *q) { return id(q); }\nint leaf(int *r) { return *r; }\n'
V2='int id(int *p) { return *p; }\nint use(int *q) { return id(q); }\nint leaf(int *r) { *r = 1; return *r; }\n'
{
    printf '{"id":1,"method":"analyze","params":{"name":"edit.c","source":"%s"}}\n' "$V1"
    printf '{"id":2,"method":"analyze-delta","params":{"name":"edit.c","source":"%s"}}\n' "$V2"
    printf '{"id":3,"method":"stats"}\n'
    printf '{"id":4,"method":"shutdown"}\n'
} >"$WORKDIR/editloop.ndjson"
STATUS=0
"$QUALSD" --metrics=json <"$WORKDIR/editloop.ndjson" \
    >"$WORKDIR/editloop.out" 2>"$WORKDIR/editloop.err" || STATUS=$?
if [ "$STATUS" -ne 0 ]; then
    echo "FAIL: qualsd exited $STATUS on the edit-loop stream" >&2
    FAILED=1
fi
# Cold reference: a fresh daemon analyzes the edited buffer under the same
# request id, so the whole response line must match byte for byte.
{
    printf '{"id":2,"method":"analyze","params":{"name":"edit.c","source":"%s"}}\n' "$V2"
    printf '{"id":3,"method":"shutdown"}\n'
} >"$WORKDIR/editcold.ndjson"
"$QUALSD" <"$WORKDIR/editcold.ndjson" >"$WORKDIR/editcold.out"
sed -n '2p' "$WORKDIR/editloop.out" >"$WORKDIR/delta_line.out"
sed -n '1p' "$WORKDIR/editcold.out" >"$WORKDIR/cold_line.out"
if ! cmp -s "$WORKDIR/delta_line.out" "$WORKDIR/cold_line.out"; then
    echo "FAIL: analyze-delta response differs from cold analyze" >&2
    diff "$WORKDIR/delta_line.out" "$WORKDIR/cold_line.out" >&2 || true
    FAILED=1
fi
if command -v python3 >/dev/null 2>&1; then
    python3 - "$WORKDIR/editloop.out" "$WORKDIR/editloop.err" \
        <<'PYEOF' || FAILED=1
import json, sys

lines = open(sys.argv[1]).read().splitlines()
assert len(lines) == 4, lines  # Responses only; metrics live on stderr.
stats = json.loads(lines[2])
delta = stats["delta"]
# analyze-delta is served like analyze; stats and metrics count it.
assert delta["requests"] == 1, delta
errlines = open(sys.argv[2]).read().splitlines()
start = next(i for i, l in enumerate(errlines) if l.startswith('{"counters"'))
metrics = json.loads("\n".join(errlines[start:]))
counters = metrics["counters"]
assert counters.get("server.delta.requests") == 1, counters
PYEOF
fi

# --- (f) telemetry: metrics request, stats latency, request log ----------
# The parallel daemon with the full telemetry surface on: every request
# must land in the histograms, the log, and nowhere near stdout's bytes.
{
    cat "$WORKDIR/doubled.ndjson"
    METRICS_ID=$((2 * NREQ + 1))
    printf '{"id":%d,"method":"metrics"}\n' "$METRICS_ID"
    printf '{"id":%d,"method":"stats"}\n' "$((METRICS_ID + 1))"
    printf '{"id":%d,"method":"shutdown"}\n' "$((METRICS_ID + 2))"
} >"$WORKDIR/telemetry.ndjson"
STATUS=0
"$QUALSD" -j4 --request-log="$WORKDIR/req.log" \
    <"$WORKDIR/telemetry.ndjson" >"$WORKDIR/telemetry.out" \
    2>"$WORKDIR/telemetry.err" || STATUS=$?
if [ "$STATUS" -ne 0 ]; then
    echo "FAIL: qualsd exited $STATUS on the telemetry stream" >&2
    cat "$WORKDIR/telemetry.err" >&2
    FAILED=1
fi
if command -v python3 >/dev/null 2>&1; then
    python3 - "$WORKDIR/telemetry.out" "$WORKDIR/req.log" "$NREQ" \
        <<'PYEOF' || FAILED=1
import json, sys

out, logpath, nreq = sys.argv[1], sys.argv[2], int(sys.argv[3])
total = 2 * nreq + 3
lines = open(out).read().splitlines()
# stdout purity at -j4: exactly one JSON response per request, in request
# order (the doubled corpus reuses ids 1..N for its second pass).
expected_ids = list(range(1, nreq + 1)) * 2 + [total - 2, total - 1, total]
assert len(lines) == total, (len(lines), total)
for i, line in enumerate(lines):
    resp = json.loads(line)
    assert resp["id"] == expected_ids[i] and "ok" in resp, resp

# The metrics response: live histograms; analyze buckets sum to the
# number of analyzes served so far.
metrics = json.loads(lines[2 * nreq])["metrics"]
lat = metrics["histograms"]["server.latency.analyze"]
assert lat["count"] == 2 * nreq, lat
assert sum(c for _, _, c in lat["buckets"]) == lat["count"], lat
assert lat["min"] <= lat["p50"] <= lat["p99"] <= lat["max"], lat
assert metrics["histograms"]["server.queue_wait"]["count"] == 2 * nreq

# The stats latency block agrees, and has seen the metrics request too.
latency = json.loads(lines[2 * nreq + 1])["latency"]
assert latency["analyze"]["count"] == 2 * nreq, latency
assert latency["metrics"]["count"] == 1, latency

# One well-formed log event per request; seq restores arrival order even
# though -j4 writes in completion order.
events = [json.loads(l) for l in open(logpath).read().splitlines()]
assert len(events) == total, len(events)
assert sorted(e["seq"] for e in events) == list(range(1, total + 1))
for e in events:
    assert e["ok"] and "service_us" in e and "bytes_out" in e, e
methods = {e["method"] for e in events}
assert methods == {"analyze", "metrics", "stats", "shutdown"}, methods
assert sum(e["method"] == "analyze" for e in events) == 2 * nreq
PYEOF
fi

# --- (g) socket transport: socket bytes == stdio bytes -------------------
# A regular file at the --listen path is refused (exit 1) and keeps its
# bytes.
printf 'not a socket\n' >"$WORKDIR/plain.txt"
STATUS=0
"$QUALSD" --listen="$WORKDIR/plain.txt" </dev/null 2>/dev/null || STATUS=$?
if [ "$STATUS" -ne 1 ] || [ "$(cat "$WORKDIR/plain.txt")" != "not a socket" ]
then
    echo "FAIL: --listen over a regular file exited $STATUS or changed it" >&2
    FAILED=1
fi
# The same request stream over --listen (unix-domain socket, -j4) must be
# byte-identical to the stdio daemon's responses, and a shutdown request
# from a second connection must stop the whole daemon with exit 0.
if command -v python3 >/dev/null 2>&1; then
    SOCK="$WORKDIR/qualsd:0.sock"
    "$QUALSD" -j4 --listen="$SOCK" 2>"$WORKDIR/socket.err" &
    SDPID=$!
    SEEN_SOCK=0
    for _ in $(seq 1 100); do
        [ -S "$SOCK" ] && { SEEN_SOCK=1; break; }
        sleep 0.05
    done
    if [ "$SEEN_SOCK" -ne 1 ]; then
        echo "FAIL: qualsd --listen never created $SOCK" >&2
        cat "$WORKDIR/socket.err" >&2
        kill "$SDPID" 2>/dev/null || true
        FAILED=1
    else
        python3 - "$SOCK" "$REQS" "$WORKDIR/socket.out" <<'PYEOF' || FAILED=1
import socket, sys

sock_path, reqs, outpath = sys.argv[1:4]
data = open(reqs, "rb").read()
s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
s.connect(sock_path)
s.sendall(data)
s.shutdown(socket.SHUT_WR)  # Half-close: EOF ends the session cleanly.
buf = b""
while True:
    chunk = s.recv(65536)
    if not chunk:
        break
    buf += chunk
open(outpath, "wb").write(buf)
PYEOF
        "$QUALSD" -j4 <"$REQS" >"$WORKDIR/stdio_ref.out"
        if ! cmp -s "$WORKDIR/socket.out" "$WORKDIR/stdio_ref.out"; then
            echo "FAIL: socket responses differ from stdio" >&2
            diff "$WORKDIR/socket.out" "$WORKDIR/stdio_ref.out" | head >&2 \
                || true
            FAILED=1
        fi
        python3 - "$SOCK" <<'PYEOF' || FAILED=1
import socket, sys

s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
s.connect(sys.argv[1])
s.sendall(b'{"id":1,"method":"shutdown"}\n')
resp = b""
while b"\n" not in resp:
    chunk = s.recv(4096)
    if not chunk:
        break
    resp += chunk
assert resp == b'{"id":1,"ok":true}\n', resp
PYEOF
        STATUS=0
        wait "$SDPID" || STATUS=$?
        if [ "$STATUS" -ne 0 ]; then
            echo "FAIL: qualsd --listen exited $STATUS after shutdown" >&2
            cat "$WORKDIR/socket.err" >&2
            FAILED=1
        fi
    fi
else
    echo "NOTE: python3 unavailable; socket scenario skipped" >&2
fi

# --- (h) removed options are unknown -------------------------------------
for OPT in --cache-dir="$WORKDIR/spill" --warm="$REQS" --slow-ms=5; do
    STATUS=0
    "$QUALSD" "$OPT" </dev/null >/dev/null 2>&1 || STATUS=$?
    if [ "$STATUS" -ne 1 ]; then
        echo "FAIL: qualsd $OPT exited $STATUS, want 1 (unknown option)" >&2
        FAILED=1
    fi
done

exit "$FAILED"
