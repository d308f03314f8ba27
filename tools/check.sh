#!/usr/bin/env bash
#===- tools/check.sh - tier-1 verification + sanitizer sweep --------------===#
#
# 1. The tier-1 line from ROADMAP.md: configure, build, run every test.
# 2. Trace smoke: run a real workload with FT_TRACE and validate that the
#    Chrome-trace JSON parses and covers every compiler layer; with
#    FT_METRICS=1 the exit summary's counters section must list nonzero
#    deps/dep_queries and deps/emptiness_queries, and FT_METRICS=0 must
#    print no summary.
# 3. Kernel-cache smoke: a cold ftc run must miss, a second run must hit
#    the disk tier, and FT_CACHE=0 / --no-cache must compile fresh —
#    against a private cache directory, plain and under ASan.
# 4. SIMD smoke: the default auto-schedule must emit `omp simd` +
#    __restrict__ for proven loops; --vectorize-width 0 must fall back to
#    the legacy ivdep-hint emission — plain and under ASan.
# 5. Dynamic-shape smoke: `ftc --dyn` must serve >= 8 distinct shapes of
#    a shape-generic workload from ONE generic compile, pass the
#    differential check against the naive loops, and promote the hot
#    shape bucket to a specialized kernel — plain and under ASan.
# 6. Sparse smoke: the ragged dependence facts must prove the CSR row
#    loop parallel (accepted in the schedule audit log) and reject
#    vectorize on the data-dependent segment loop with a reasoned audit
#    entry — plain and under ASan; plus schema validation of the sparse
#    bench's BENCH_sparse.json (compiled segment loops vs the
#    materializing EagerTensor chains).
# 7. Serve smoke: the tiered serving bench must pass its acceptance
#    criteria (cold request hides the compile, >= 95% JIT after warm-up,
#    bounded queue rejects under overload) and write schema-valid
#    BENCH_serve.json — plain and under ASan.
# 8. Telemetry smoke: a serve run with FT_TELEMETRY_DIR set must publish
#    >= 2 schema-valid snapshots with strictly monotone sequence numbers
#    and no unpublished tmp files, and `ftc --top` must round-trip the
#    snapshot directory into the dashboard — including skipping a
#    deliberately truncated snapshot with a warning — plain and under
#    ASan.
# 9. Correlation smoke: a cold-then-warm serve run with FT_TRACE +
#    FT_TELEMETRY_DIR + a deadline must produce a Chrome trace where
#    every serve/request span carries its request id and >= 1 flow arrow
#    links a request to the background serve/compile span, and a final
#    snapshot whose per-fingerprint shape counts sum to the requests
#    served, with per-tenant deadline accounting that `ftc --top` and
#    `ftc --advise` render — plain and under ASan.
# 10. Grad smoke: `ftc --grad` must report Longformer's attn
#    materialized and SubdivNet's d recomputed, and SoftRas's backward
#    must bind at least one shared adjoint value and stay under 1000 IR
#    nodes — plain and under ASan.
# 11. Bench guard: freshly written BENCH_*.json results (including the
#    dynamic-shape bench's compile-amortization and specialization
#    speedups, and the sparse bench's eager-vs-compiled speedups) are
#    compared against the committed baselines on key ratios; >25%
#    regressions fail the check (tools/bench_guard.py).
# 12. The same test suite rebuilt under ASan/UBSan (FT_SANITIZE=ON) in a
#    separate build tree, so memory and UB bugs in the analysis/schedule
#    layers cannot hide behind passing functional tests. The trace test
#    runs there too: the observability layer itself must be clean.
# 13. The concurrent suites (kernel runtime pool, re-entrant kernels,
#    serving executor, telemetry) rebuilt under ThreadSanitizer in
#    build-tsan/ and run on a 4-thread kernel pool; any report fails.
#
# Usage: tools/check.sh [--skip-sanitize]
# Also reachable as `cmake --build build --target check`.
#
#===----------------------------------------------------------------------===#

set -euo pipefail
cd "$(dirname "$0")/.."

SKIP_SANITIZE=0
for Arg in "$@"; do
  case "$Arg" in
  --skip-sanitize) SKIP_SANITIZE=1 ;;
  *)
    echo "unknown argument: $Arg" >&2
    exit 2
    ;;
  esac
done

echo "== tier-1: build + ctest =="
cmake -B build -S . >/dev/null
cmake --build build -j
(cd build && ctest --output-on-failure -j)

echo "== trace smoke: FT_TRACE on example_subdivnet =="
TraceJson=/tmp/ft_check_trace.json
rm -f "$TraceJson"
FT_TRACE="$TraceJson" ./build/examples/example_subdivnet >/dev/null
python3 - "$TraceJson" <<'PYEOF'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
events = doc["traceEvents"]
spans = [e for e in events if e.get("ph") == "X"]
audits = [e for e in events if e.get("ph") == "i" and e.get("cat") == "audit"]
cats = {e["cat"] for e in spans}
for layer in ("frontend", "pass", "schedule", "codegen", "rt"):
    assert layer in cats, f"no '{layer}/' span in trace (cats: {sorted(cats)})"
assert audits, "no schedule-decision audit events in trace"
rejected = [a for a in audits if a["args"].get("applied") == "false"]
assert all(a["args"].get("reason") for a in rejected), \
    "rejected audit entry without a legality reason"
print(f"trace OK: {len(spans)} spans over {sorted(cats)}, "
      f"{len(audits)} audit events ({len(rejected)} rejected, all reasoned)")
PYEOF
rm -f "$TraceJson"
MetricsOut="$(FT_METRICS=1 ./build/examples/example_subdivnet 2>&1 >/dev/null)"
Counters="$(sed -n '/^=== FT_METRICS: counters ===$/,$p' <<<"$MetricsOut")"
for Name in deps/dep_queries deps/emptiness_queries; do
  grep -Eq "^  $Name +[1-9][0-9]*$" <<<"$Counters" ||
    { echo "metrics smoke: no nonzero $Name in the FT_METRICS counters"
      echo "$MetricsOut"; exit 1; }
done
MetricsOut="$(FT_METRICS=0 ./build/examples/example_subdivnet 2>&1)"
if grep -q "^=== FT_METRICS" <<<"$MetricsOut"; then
  echo "metrics smoke: FT_METRICS=0 still printed the summary"; exit 1
fi
echo "metrics OK: nonzero deps/ counters at FT_METRICS=1, silent at 0"

echo "== profile smoke: FT_PROFILE on ftc subdivnet =="
ProfileJson=/tmp/ft_check_profile.json
rm -f "$ProfileJson"
FT_PROFILE="$ProfileJson" ./build/tools/ftc --workload subdivnet \
  --profile --run 3 >/dev/null
python3 - "$ProfileJson" <<'PYEOF'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
profiles = doc["profiles"]
assert profiles, "no kernel profiles recorded"
kp = profiles[0]
loops = kp["loops"]
assert loops, "profile has no loop rows"
for row in loops:
    assert row.get("resolved") is True, \
        f"loop {row.get('id')} does not resolve through the source map"
hot = max(loops, key=lambda r: r.get("est_self_ns", 0))
assert "faces" in hot["path"], \
    f"hot loop should be the faces nest, got {hot['path']}"
assert any(r.get("calls", 0) > 0 for r in loops), "no call counts recorded"
print(f"profile OK: {len(loops)} loop rows, all resolved, "
      f"hot={hot['path']} ({hot['est_self_ns']/1e6:.3f} ms est self)")
PYEOF
rm -f "$ProfileJson"

# Runs the four cache expectations against $1/ftc with a fresh private
# cache dir: cold miss, warm disk hit, FT_CACHE=0 miss, --no-cache miss.
cache_smoke() {
  local Ftc="$1"
  local CacheDir
  CacheDir="$(mktemp -d /tmp/ft_check_cache.XXXXXX)"
  local Out
  Out="$("$Ftc" --workload gat --run 1 --cache-dir "$CacheDir")"
  grep -q "cache: miss" <<<"$Out" ||
    { echo "cache smoke: first run did not miss"; echo "$Out"; return 1; }
  Out="$("$Ftc" --workload gat --run 1 --cache-dir "$CacheDir")"
  grep -q "cache: disk" <<<"$Out" ||
    { echo "cache smoke: second run did not hit disk"; echo "$Out"; return 1; }
  Out="$(FT_CACHE=0 "$Ftc" --workload gat --run 1 --cache-dir "$CacheDir")"
  grep -q "cache: miss" <<<"$Out" ||
    { echo "cache smoke: FT_CACHE=0 did not miss"; echo "$Out"; return 1; }
  Out="$("$Ftc" --workload gat --run 1 --cache-dir "$CacheDir" --no-cache)"
  grep -q "cache: miss" <<<"$Out" ||
    { echo "cache smoke: --no-cache did not miss"; echo "$Out"; return 1; }
  rm -rf "$CacheDir"
  echo "cache smoke OK: cold miss, warm disk hit, FT_CACHE=0 + --no-cache miss"
}

echo "== kernel-cache smoke: ftc cold/warm/disabled =="
cache_smoke ./build/tools/ftc

# SIMD smoke against $1/ftc: the default auto-schedule must lower proven
# loops to `#pragma omp simd` with __restrict__ parameters, and
# --vectorize-width 0 must fall back to the legacy ivdep-hint-only
# emission with neither.
simd_smoke() {
  local Ftc="$1"
  local Src
  Src="$("$Ftc" --workload longformer --emit-cpp - --no-cache)"
  grep -q "omp simd" <<<"$Src" ||
    { echo "simd smoke: default emission has no omp simd pragma"; return 1; }
  grep -q "__restrict__" <<<"$Src" ||
    { echo "simd smoke: default emission has no __restrict__ params"; return 1; }
  Src="$("$Ftc" --workload longformer --emit-cpp - --no-cache \
    --vectorize-width 0)"
  grep -q "ivdep" <<<"$Src" ||
    { echo "simd smoke: width-0 emission lost the ivdep hint"; return 1; }
  if grep -q "omp simd" <<<"$Src"; then
    echo "simd smoke: width-0 emission still carries omp simd"; return 1
  fi
  echo "simd smoke OK: default -> omp simd + __restrict__, width 0 -> ivdep"
}

echo "== simd smoke: proven lowering vs legacy hint =="
simd_smoke ./build/tools/ftc

# Dynamic-shape smoke against $1/ftc: one shape-generic compile must serve
# >= 8 distinct shapes (generic_compiles=1 in the summary line), every
# shape must match the naive C++ loops (differential=ok), and the hot
# shape bucket must promote to a specialized kernel (promoted=1) — on a
# fresh private cache dir so the compile counts are deterministic.
dynshape_smoke() {
  local Ftc="$1"
  local CacheDir
  CacheDir="$(mktemp -d /tmp/ft_check_dynshape.XXXXXX)"
  local Out
  Out="$(FT_CACHE_DIR="$CacheDir" FT_SPECIALIZE_AFTER=4 \
    "$Ftc" --dyn --workload subdivnet --serve 12 --shapes 8)" ||
    { echo "dynshape smoke: ftc --dyn failed"; echo "$Out"; return 1; }
  grep -q "dynshape: summary shapes=8 generic_compiles=1 " <<<"$Out" ||
    { echo "dynshape smoke: 8 shapes did not amortize to one generic compile"
      echo "$Out"; return 1; }
  grep -q "promoted=1 differential=ok" <<<"$Out" ||
    { echo "dynshape smoke: hot bucket not promoted or differential failed"
      echo "$Out"; return 1; }
  rm -rf "$CacheDir"
  echo "dynshape smoke OK: 8 shapes -> 1 generic compile," \
       "hot bucket promoted, differential vs naive loops ok"
}

echo "== dynshape smoke: one generic compile + hot-bucket promotion =="
dynshape_smoke ./build/tools/ftc

# Sparse smoke against $1/ftc: the ragged dependence facts must let
# parallelize through on the CSR row loop and reject vectorize on the
# data-dependent segment loop, with both verdicts in the audit log —
# exactly what `ftc --check-schedule` drives and prints.
sparse_smoke() {
  local Ftc="$1"
  local Out
  Out="$("$Ftc" --check-schedule --workload spmm)" ||
    { echo "sparse smoke: ftc --check-schedule failed"; echo "$Out"
      return 1; }
  grep -q "parallelize rows applied=1" <<<"$Out" ||
    { echo "sparse smoke: row-loop parallelize not accepted in audit log"
      echo "$Out"; return 1; }
  grep -q "vectorize spmm_seg applied=0" <<<"$Out" ||
    { echo "sparse smoke: segment-loop vectorize not rejected in audit log"
      echo "$Out"; return 1; }
  grep -q "data-dependent" <<<"$Out" ||
    { echo "sparse smoke: vectorize rejection lost its reason"
      echo "$Out"; return 1; }
  echo "sparse smoke OK: parallelize(rows) accepted," \
       "vectorize(spmm_seg) rejected as data-dependent"
}

# Schema validation of the sparse bench's JSON (run from scratch dir $2):
# three workloads, each with a positive speedup over the eager chain and
# a small output divergence, and the two-of-three acceptance bar met.
sparse_bench_smoke() {
  local Bench="$1"
  local RunDir="$2"
  (cd "$RunDir" && "$Bench") >/dev/null
  python3 - "$RunDir/BENCH_sparse.json" <<'PYEOF'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
assert doc["benchmark"] == "sparse"
rows = doc["workloads"]
assert {r["name"] for r in rows} == {"spmm", "sddmm", "segsoftmax"}, \
    f"unexpected workload set: {[r['name'] for r in rows]}"
for r in rows:
    for key in ("nnz", "eager_ms", "ft_ms", "speedup", "max_diff"):
        assert key in r, f"{r['name']} missing '{key}'"
    assert r["nnz"] > 0 and r["eager_ms"] > 0 and r["ft_ms"] > 0
    assert r["max_diff"] <= 1e-3, \
        f"{r['name']} diverges from the eager chain: {r['max_diff']}"
at_bar = sum(r["speedup"] >= 1.3 for r in rows)
assert at_bar >= 2, f"only {at_bar}/3 workloads reach 1.3x over eager"
assert doc["second_best_speedup"] >= 1.3
assert doc["pass"] is True
print(f"sparse bench OK: {at_bar}/3 workloads >= 1.3x over eager, "
      f"second-best {doc['second_best_speedup']:.2f}x")
PYEOF
}

# Serving smoke against the serve_bench binary $1 (run from scratch dir
# $2): the executor must
# answer the cold request from the interpreter, reach >= 95% JIT tier after
# warm-up, and bound the queue under overload — all asserted by the bench
# itself (exit code) and re-checked here from the JSON it writes, which
# also validates the BENCH_serve.json schema.
serve_smoke() {
  local Bench="$1"
  local RunDir="$2"
  (cd "$RunDir" && "$Bench") >/dev/null
  python3 - "$RunDir/BENCH_serve.json" <<'PYEOF'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
assert doc["benchmark"] == "serve"
cold, warm, over = doc["cold"], doc["warm"], doc["overload"]
assert cold["hidden"] is True, "cold request did not hide the compile"
assert cold["first_request_sec"] < cold["compile_ref_sec"]
assert warm["jit_fraction"] >= warm["target_fraction"], \
    f"warm jit fraction {warm['jit_fraction']} below target"
assert over["rejected"] > 0, "10x overload produced no rejections"
assert over["accepted"] + over["rejected"] == over["offered"]
for tier in ("interp", "jit"):
    t = doc["tiers"][tier]
    assert t["count"] > 0, f"no {tier}-tier samples"
    assert 0 < t["p50_us"] <= t["p95_us"] <= t["p99_us"], \
        f"non-monotonic percentiles for {tier}: {t}"
assert doc["pass"] is True
print(f"serve smoke OK: cold {cold['first_request_sec']*1e3:.1f} ms vs "
      f"compile {cold['compile_ref_sec']:.2f} s, "
      f"warm jit {warm['jit_fraction']*100:.1f}%, "
      f"overload rejected {over['rejected']}/{over['offered']}")
PYEOF
}

echo "== sparse smoke: ragged schedule legality audit =="
sparse_smoke ./build/tools/ftc

# Grad smoke against $1/ftc: the tape-or-recompute cost rule must tape
# Longformer's attn, which the backward pass reads on every trip of the
# 64-wide feature loop, and recompute SubdivNet's d, whose tape would
# outgrow L2 and be read once per element.
grad_smoke() {
  local Ftc="$1"
  local Out
  Out="$("$Ftc" --workload longformer --grad)" ||
    { echo "grad smoke: ftc --grad failed on longformer"; echo "$Out"
      return 1; }
  grep -q "^  attn: materialized " <<<"$Out" ||
    { echo "grad smoke: longformer attn not materialized"; echo "$Out"
      return 1; }
  Out="$("$Ftc" --workload subdivnet --grad)" ||
    { echo "grad smoke: ftc --grad failed on subdivnet"; echo "$Out"
      return 1; }
  grep -q "^  d: recomputed " <<<"$Out" ||
    { echo "grad smoke: subdivnet d not recomputed"; echo "$Out"
      return 1; }
  Out="$("$Ftc" --workload softras --grad)" ||
    { echo "grad smoke: ftc --grad failed on softras"; echo "$Out"
      return 1; }
  local Nodes Shared
  read -r Nodes Shared < <(sed -nE \
    's/^  backward: ([0-9]+) IR nodes, ([0-9]+) shared value.*/\1 \2/p' \
    <<<"$Out") || true
  [[ -n "$Nodes" && "$Shared" -ge 1 && "$Nodes" -lt 1000 ]] ||
    { echo "grad smoke: softras backward shares no value or has >= 1000" \
        "IR nodes"; echo "$Out"; return 1; }
  echo "grad smoke OK: longformer attn materialized, subdivnet d" \
    "recomputed, softras backward $Nodes nodes with $Shared shared values"
}

echo "== grad smoke: tape-or-recompute decisions =="
grad_smoke ./build/tools/ftc

echo "== sparse bench: eager-vs-compiled speedups + JSON schema =="
sparse_bench_smoke "$(pwd)/build/bench/sparse_bench" build/bench-build

echo "== serve smoke: tiered executor bench + JSON schema =="
serve_smoke "$(pwd)/build/bench/serve_bench" build/bench-build

# Telemetry smoke against $1/ftc: a serve run with FT_TELEMETRY_DIR set
# must continuously publish snapshots (>= 2 of them, schema-versioned,
# strictly monotone seq, no leftover .tmp files from the atomic rename),
# and `ftc --top` must round-trip the directory into the dashboard.
telemetry_smoke() {
  local Ftc="$1"
  local TelDir
  TelDir="$(mktemp -d /tmp/ft_check_telemetry.XXXXXX)"
  FT_CACHE_DIR="$TelDir/cache" FT_TELEMETRY_DIR="$TelDir/snaps" \
    FT_TELEMETRY_INTERVAL_MS=50 \
    "$Ftc" --workload gat --serve 60 >/dev/null
  python3 - "$TelDir/snaps" <<'PYEOF'
import json, os, sys
d = sys.argv[1]
names = sorted(n for n in os.listdir(d)
               if n.startswith("snap-") and n.endswith(".json"))
tmps = [n for n in os.listdir(d) if ".tmp." in n]
assert not tmps, f"unpublished tmp files left behind: {tmps}"
assert len(names) >= 2, f"expected >= 2 snapshots, got {len(names)}"
seqs = []
for n in names:
    with open(os.path.join(d, n)) as f:
        doc = json.load(f)
    assert doc.get("schema") == "freetensor-telemetry/v2", \
        f"{n}: bad schema {doc.get('schema')!r}"
    for key in ("seq", "wall_unix_ms", "counters", "histograms",
                "kernels", "shapes", "tenants", "flight"):
        assert key in doc, f"{n} missing '{key}'"
    seqs.append(doc["seq"])
assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs), \
    f"seq not strictly monotone: {seqs}"
last = doc
assert last["counters"].get("serve/submitted", 0) >= 60, \
    "final snapshot lost the serve counters"
assert any(h["name"] == "serve/queue_wait_ns" and h["count"] > 0
           for h in last["histograms"]), "no queue-wait samples"
assert last["kernels"], "no hot-kernel rows in final snapshot"
assert last["flight"]["recorded"] >= 60, "flight recorder empty"
print(f"telemetry snapshots OK: {len(names)} files, "
      f"seq {seqs[0]}..{seqs[-1]}")
PYEOF
  local TopOut
  TopOut="$("$Ftc" --top --telemetry-dir "$TelDir/snaps")"
  grep -q "schema freetensor-telemetry/v2" <<<"$TopOut" ||
    { echo "telemetry smoke: --top lost the schema"; echo "$TopOut"; return 1; }
  grep -q "FINGERPRINT" <<<"$TopOut" ||
    { echo "telemetry smoke: --top shows no kernel table"; echo "$TopOut"
      return 1; }
  # A truncated (partially-written) snapshot must be skipped with a
  # warning, not abort the dashboard; zzz sorts it newest so it is hit
  # first.
  local FirstSnap
  FirstSnap="$(ls "$TelDir/snaps"/snap-*.json | head -1)"
  head -c 80 "$FirstSnap" > "$TelDir/snaps/snap-zzz-truncated.json"
  TopOut="$("$Ftc" --top --telemetry-dir "$TelDir/snaps" 2>&1)"
  grep -q "skipping snap-zzz-truncated.json" <<<"$TopOut" ||
    { echo "telemetry smoke: --top did not warn about truncated snapshot"
      echo "$TopOut"; return 1; }
  grep -q "FINGERPRINT" <<<"$TopOut" ||
    { echo "telemetry smoke: --top aborted on truncated snapshot"
      echo "$TopOut"; return 1; }
  rm -rf "$TelDir"
  echo "telemetry smoke OK: snapshots valid + ftc --top round-trip" \
       "(truncated snapshot skipped with warning)"
}

echo "== telemetry smoke: snapshot export + ftc --top =="
telemetry_smoke ./build/tools/ftc

# Correlation smoke against $1/ftc: one cold-then-warm serve run with
# FT_TRACE + FT_TELEMETRY_DIR + a default deadline. Validates the
# request-scoped observability contract end to end (DESIGN.md §15):
# every serve/request span carries its request id, at least one flow
# arrow links a request's enqueue to the background serve/compile span
# (the cold-miss story in Perfetto), the final snapshot's shape counts
# sum to the requests served, deadline accounting is present, and the
# two consumers render it (--advise nominates a hot shape, --top shows
# deadline met/missed).
correlation_smoke() {
  local Ftc="$1"
  local Dir
  Dir="$(mktemp -d /tmp/ft_check_corr.XXXXXX)"
  FT_CACHE_DIR="$Dir/cache" FT_TELEMETRY_DIR="$Dir/snaps" \
    FT_TELEMETRY_INTERVAL_MS=50 FT_TRACE="$Dir/trace.json" \
    FT_SLO_DEADLINE_MS=2000 \
    "$Ftc" --workload gat --serve 40 >/dev/null
  python3 - "$Dir" <<'PYEOF'
import json, os, sys
d = sys.argv[1]
trace = json.load(open(os.path.join(d, "trace.json")))["traceEvents"]
reqs = [e for e in trace
        if e.get("name") == "serve/request" and e.get("ph") == "X"]
assert reqs, "no serve/request spans in trace"
noid = [e for e in reqs if not e.get("args", {}).get("req")]
assert not noid, f"{len(noid)} serve/request span(s) without a request id"
flows = [e for e in trace if e.get("cat") == "flow"]
starts = {e["id"] for e in flows if e["ph"] == "s"}
fins = {e["id"] for e in flows if e["ph"] == "f"}
linked = starts & fins
assert linked, "no flow arrow links a request to the background compile"
comp = [e for e in trace if e.get("name") == "serve/compile"
        and e.get("ph") == "X"]
assert comp, "no serve/compile span (cache hit? needs a cold cache dir)"
assert any(e.get("args", {}).get("req") for e in comp), \
    "serve/compile span lost its triggering request id"
snaps = os.path.join(d, "snaps")
names = sorted(n for n in os.listdir(snaps) if n.startswith("snap-"))
snap = json.load(open(os.path.join(snaps, names[-1])))
assert snap["schema"] == "freetensor-telemetry/v2"
served = (snap["counters"].get("serve/interp_served", 0)
          + snap["counters"].get("serve/jit_served", 0))
shape_reqs = sum(r["requests"] for fp in snap["shapes"]
                 for r in fp["rows"])
shape_reqs += sum(fp["other"]["requests"] for fp in snap["shapes"])
assert shape_reqs == served, \
    f"shape-table requests {shape_reqs} != served {served}"
tenants = snap["tenants"]
assert tenants, "no per-tenant SLO section"
verdicts = sum(t["met"] + t["missed"] for t in tenants)
assert verdicts == served, \
    f"deadline verdicts {verdicts} != served {served} (every request " \
    f"carried a deadline)"
print(f"correlation OK: {len(reqs)} request spans with ids, "
      f"{len(linked)} flow link(s) to compile, "
      f"shape rows sum {shape_reqs} == served {served}, "
      f"{verdicts} deadline verdicts")
PYEOF
  local AdvOut
  AdvOut="$("$Ftc" --advise --telemetry-dir "$Dir/snaps")"
  grep -q "specialize" <<<"$AdvOut" ||
    { echo "correlation smoke: --advise printed no nomination"
      echo "$AdvOut"; return 1; }
  local TopOut
  TopOut="$("$Ftc" --top --telemetry-dir "$Dir/snaps")"
  grep -q "deadline met" <<<"$TopOut" ||
    { echo "correlation smoke: --top shows no SLO line"; echo "$TopOut"
      return 1; }
  rm -rf "$Dir"
  echo "correlation smoke OK: request ids + flow arrows + shape/SLO" \
       "sections + --advise/--top render"
}

echo "== correlation smoke: request-scoped trace + shape/SLO telemetry =="
correlation_smoke ./build/tools/ftc

echo "== telemetry overhead bench: disabled <= 5 ns, enabled <= 2% =="
(cd build/bench-build && ../bench/telemetry_overhead_bench) | tail -1

echo "== dynshape bench: compile amortization + specialization payoff =="
(cd build/bench-build && ../bench/dynshape_bench) | tail -2

echo "== bench guard: fresh results vs committed baselines =="
python3 tools/bench_guard.py --baseline-dir . --fresh-dir build/bench-build

if [ "$SKIP_SANITIZE" = 1 ]; then
  echo "== sanitizer sweep skipped (--skip-sanitize) =="
  exit 0
fi

echo "== ASan/UBSan: build + ctest =="
cmake -B build-asan -S . -DFT_SANITIZE=ON -DCMAKE_BUILD_TYPE=Debug \
  >/dev/null
cmake --build build-asan -j
(cd build-asan && ASAN_OPTIONS=detect_leaks=0 \
  ctest --output-on-failure -j)

echo "== profile smoke under ASan =="
rm -f "$ProfileJson"
ASAN_OPTIONS=detect_leaks=0 FT_PROFILE="$ProfileJson" \
  ./build-asan/tools/ftc --workload subdivnet --profile --run 3 >/dev/null
python3 -c "
import json, sys
doc = json.load(open('$ProfileJson'))
assert doc['profiles'] and doc['profiles'][0]['loops'], 'empty profile'
print('ASan profile smoke OK')
"
rm -f "$ProfileJson"

echo "== kernel-cache smoke under ASan =="
ASAN_OPTIONS=detect_leaks=0 cache_smoke ./build-asan/tools/ftc

echo "== simd smoke under ASan =="
ASAN_OPTIONS=detect_leaks=0 simd_smoke ./build-asan/tools/ftc

echo "== dynshape smoke under ASan =="
ASAN_OPTIONS=detect_leaks=0 dynshape_smoke ./build-asan/tools/ftc

echo "== sparse smoke under ASan =="
ASAN_OPTIONS=detect_leaks=0 sparse_smoke ./build-asan/tools/ftc

echo "== grad smoke under ASan =="
ASAN_OPTIONS=detect_leaks=0 grad_smoke ./build-asan/tools/ftc

echo "== serve smoke under ASan =="
ASAN_OPTIONS=detect_leaks=0 \
  serve_smoke "$(pwd)/build-asan/bench/serve_bench" build-asan/bench-build

echo "== telemetry smoke under ASan =="
ASAN_OPTIONS=detect_leaks=0 telemetry_smoke ./build-asan/tools/ftc

echo "== correlation smoke under ASan =="
ASAN_OPTIONS=detect_leaks=0 correlation_smoke ./build-asan/tools/ftc

echo "== TSan: runtime, concurrency, serve and telemetry tests =="
TsanTests="runtime_test concurrency_test serve_test telemetry_test"
cmake -B build-tsan -S . -DCMAKE_CXX_FLAGS=-fsanitize=thread \
  -DCMAKE_EXE_LINKER_FLAGS=-fsanitize=thread >/dev/null
# shellcheck disable=SC2086
cmake --build build-tsan -j --target $TsanTests
for T in $TsanTests; do
  FT_NUM_THREADS=4 TSAN_OPTIONS=halt_on_error=1 "./build-tsan/tests/$T"
done

echo "== check.sh: all green =="
