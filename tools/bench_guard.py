#!/usr/bin/env python3
"""Guard committed benchmark baselines against regressions.

Compares freshly written BENCH_*.json files (from a build tree) against
the committed baselines at the repo root on a small set of key metrics.
A metric regresses when it moves in the bad direction by more than
--tolerance (default 25%) AND by more than its absolute slack — the
slack keeps near-zero baselines (e.g. overhead fractions of a fraction
of a percent) from amplifying scheduler noise into failures.

Fresh files that were not produced in this run are skipped with a note,
so the guard composes with partial bench sweeps.

Key coverage is checked both ways: a guarded key present in the committed
baseline but absent from the fresh run is a hard failure (the bench
stopped emitting a guarded metric — silently skipping it would let a
regression hide behind a rename), and fresh numeric keys no Check covers
are listed as unguarded so new metrics get guards when they land.

Usage:
  tools/bench_guard.py --baseline-dir . --fresh-dir build/bench-build \
      [--tolerance 0.25]

Exit status: 0 = no regression, 1 = at least one metric regressed,
2 = bad invocation.
"""

import argparse
import json
import os
import sys


class Check:
    """One guarded metric inside a bench JSON document.

    path: dot-separated keys; a trailing "[*].key:min" (or ":max")
          segment maps over an array of objects and reduces with min/max
          — the worst workload for higher-is-better (min) or
          lower-is-better (max) metrics.
    direction: "higher" or "lower" — which way is better.
    abs_slack: minimum absolute movement before a relative regression
          counts, in the metric's own unit.
    """

    def __init__(self, path, direction, abs_slack=0.0):
        assert direction in ("higher", "lower")
        self.path = path
        self.direction = direction
        self.abs_slack = abs_slack

    def extract(self, doc):
        # "[*].leaf:min" spans a "." so it must be peeled before the
        # dot-split (splitting first loses the array segment, which made
        # every array check silently unextractable).
        path = self.path
        for suffix, reduce_fn in ((":min", min), (":max", max)):
            if path.endswith(suffix) and "[*]." in path:
                arr_path, leaf = path[: -len(suffix)].split("[*].", 1)
                cur = doc
                for seg in arr_path.split("."):
                    cur = cur[seg]
                vals = [row[leaf] for row in cur]
                if not vals:
                    raise KeyError(f"{self.path}: empty array")
                return reduce_fn(vals)
        cur = doc
        for seg in path.split("."):
            cur = cur[seg]
        return float(cur)

    def verdict(self, base, fresh, tol):
        """Returns (regressed, human_line)."""
        if self.direction == "lower":
            limit = base * (1.0 + tol) + self.abs_slack
            bad = fresh > limit
            delta = fresh - base
        else:
            limit = base / (1.0 + tol) - self.abs_slack
            bad = fresh < limit
            delta = base - fresh
        rel = (delta / base * 100.0) if base else float("inf")
        line = (f"{self.path:42s} base {base:12.4f}  fresh {fresh:12.4f}  "
                f"({'+' if delta >= 0 else ''}{rel:.1f}% worse-dir, "
                f"{self.direction} is better)")
        return bad, line


# The key ratios per bench file. Slack values are sized to the metric's
# unit and the jitter observed on the reference VM (single-socket, no
# cpu pinning): ~100 us on short serve latencies, ~1 ns on the disabled
# hook path, 1.5 percentage points on the telemetry overhead fraction.
# The jit p99 is the 4th-worst of 400 requests. Its slack was sized to
# the ~400-900 us spread of runs with the executor's former 200 us batch
# window in the path; workers now batch only what is already queued, and
# the p99 reads ~35 us on the 4-vCPU host, far inside that slack.
CHECKS = {
    "BENCH_serve.json": [
        Check("warm.jit_fraction", "higher"),
        Check("tiers.jit.p50_us", "lower", abs_slack=100.0),
        Check("tiers.jit.p99_us", "lower", abs_slack=500.0),
        Check("queue_wait.p50_us", "lower", abs_slack=100.0),
        Check("cold.first_request_sec", "lower", abs_slack=0.05),
    ],
    "BENCH_telemetry_overhead.json": [
        Check("disabled_record_ns", "lower", abs_slack=1.0),
        Check("disabled_context_ns", "lower", abs_slack=1.0),
        Check("overhead_frac", "lower", abs_slack=0.015),
        Check("on_rps", "higher"),
    ],
    "BENCH_jit_cache.json": [
        Check("workloads[*].speedup_mem:min", "higher"),
        Check("workloads[*].speedup_disk:min", "higher"),
    ],
    "BENCH_simd.json": [
        Check("workloads[*].speedup:min", "higher", abs_slack=0.05),
        # How many workloads clear the 1.3x target, and the worst
        # divergence from the interpreter across all of them.
        Check("workloads_at_target", "higher"),
        Check("workloads[*].max_abs_diff:max", "lower", abs_slack=1e-5),
    ],
    "BENCH_dynshape.json": [
        # One generic compile must keep serving every distinct shape; any
        # growth means the fingerprint started seeing literal extents.
        Check("shapes.generic_compiles", "lower"),
        # The acceptance bar: specialization wins >= 1.2x on at least two
        # of the four workloads, i.e. the second-best speedup clears it.
        Check("second_best_speedup", "higher", abs_slack=0.05),
        # The worst workload (softras sits at ~1.0x on the reference VM —
        # specialization must at least never make a bucket slower than
        # generic beyond noise) and the worst generic-vs-specialized
        # output divergence.
        Check("workloads[*].speedup:min", "higher", abs_slack=0.15),
        Check("workloads[*].max_diff:max", "lower", abs_slack=1e-5),
    ],
    "BENCH_sparse.json": [
        # The acceptance bar: the compiled segment-loop programs beat the
        # materializing EagerTensor chains >= 1.3x on at least two of the
        # three sparse workloads.
        Check("second_best_speedup", "higher", abs_slack=0.05),
        # The worst workload must still win (segsoftmax, ~6.7x on the
        # reference VM), and outputs must keep matching the eager chain.
        Check("workloads[*].speedup:min", "higher", abs_slack=0.5),
        Check("workloads[*].max_diff:max", "lower", abs_slack=1e-5),
    ],
}


def numeric_leaf_paths(doc, prefix=""):
    """Dot-paths of every numeric leaf in a parsed JSON doc; array rows
    collapse into one "[*]" segment (matching Check path syntax)."""
    paths = set()
    if isinstance(doc, dict):
        for key, val in doc.items():
            child = f"{prefix}.{key}" if prefix else key
            paths |= numeric_leaf_paths(val, child)
    elif isinstance(doc, list):
        for row in doc:
            paths |= numeric_leaf_paths(row, f"{prefix}[*]")
    elif isinstance(doc, (int, float)) and not isinstance(doc, bool):
        paths.add(prefix)
    return paths


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--baseline-dir", default=".",
                    help="directory with committed BENCH_*.json baselines")
    ap.add_argument("--fresh-dir", action="append", default=[],
                    help="directory with freshly written results "
                         "(repeatable; first hit per file wins)")
    ap.add_argument("--tolerance", type=float, default=0.25,
                    help="allowed relative regression (default 0.25)")
    args = ap.parse_args()
    if not args.fresh_dir:
        ap.error("at least one --fresh-dir is required")

    regressions = 0
    compared = 0
    for fname, checks in sorted(CHECKS.items()):
        base_path = os.path.join(args.baseline_dir, fname)
        fresh_path = next(
            (p for d in args.fresh_dir
             if os.path.exists(p := os.path.join(d, fname))), None)
        if not os.path.exists(base_path):
            print(f"bench_guard: {fname}: no committed baseline, skipping")
            continue
        if fresh_path is None:
            print(f"bench_guard: {fname}: not produced this run, skipping")
            continue
        with open(base_path) as f:
            base_doc = json.load(f)
        with open(fresh_path) as f:
            fresh_doc = json.load(f)
        for chk in checks:
            try:
                base = float(chk.extract(base_doc))
            except KeyError:
                # The committed baseline predates this metric; the next
                # baseline refresh picks it up.
                print(f"bench_guard: {fname}: {chk.path} not in committed "
                      f"baseline yet, skipping metric")
                continue
            try:
                fresh = float(chk.extract(fresh_doc))
            except KeyError:
                print(f"bench_guard: MISSING    {fname}: committed baseline "
                      f"key `{chk.path}` has no matching key in the fresh "
                      f"run — the bench no longer emits it; fix the bench "
                      f"or retire the key from CHECKS and the baseline")
                compared += 1
                regressions += 1
                continue
            bad, line = chk.verdict(base, fresh, args.tolerance)
            compared += 1
            tag = "REGRESSION" if bad else "ok"
            print(f"bench_guard: {tag:10s} {line}")
            regressions += bad

        guarded = {chk.path.split(":")[0] for chk in checks}
        unguarded = sorted(p for p in numeric_leaf_paths(fresh_doc)
                           if p not in guarded)
        if unguarded:
            print(f"bench_guard: note: {fname}: unguarded numeric keys: "
                  + ", ".join(unguarded))

    if compared == 0:
        print("bench_guard: nothing to compare (no fresh results found)")
        return 0
    if regressions:
        print(f"bench_guard: FAIL — {regressions} metric(s) regressed "
              f"beyond {args.tolerance * 100:.0f}%")
        return 1
    print(f"bench_guard: OK — {compared} metric(s) within "
          f"{args.tolerance * 100:.0f}% of committed baselines")
    return 0


if __name__ == "__main__":
    sys.exit(main())
