#!/usr/bin/env python3
"""Compares two checkouts of this repository with bench_e2e on one machine.

    python3 tools/perf_guard.py BASE_DIR HEAD_DIR

For every workload in HEAD_DIR's BENCHMARK.json the guard runs

    python3 bench_e2e/run.py --workload W --seed S --seconds <run_seconds> \
        --trace 0

in both checkouts as alternating pairs, one pair per seed in SEEDS: the
base runs first in odd pairs, the head in even ones. run.py builds each
checkout's bench in Release on its first call. For every workload and
end-to-end metric the guard prints both sides' medians and quartiles
(statistics.quantiles(n=4), as bench_e2e/README.md defines spread) and
one verdict, with the metric's direction and bound from BENCHMARK.json:

  regressed   the head median is worse than the base median by more than
              the bound and lies outside the base's quartiles;
  unresolved  the base's quartile spread over its median exceeds the
              bound, and not every head run beats every base run;
  pass        otherwise.

Exit status: 1 on any regression or on any run, on either side, whose
bench checks failed (or that gave no result); 3 when a verdict is
unresolved; 0 otherwise; 2 on a usage error.
"""

import json
import os
import statistics
import subprocess
import sys

# Five pairs keep a run of four 6 s workloads near seven minutes on a
# 4-core machine; the seeds pollute the timed inputs only, so sensitivity
# and specificity do not move with them.
SEEDS = (101, 102, 103, 104, 105)

PASS, UNRESOLVED, REGRESSED = "pass", "unresolved", "regressed"
CHECK_FAILED = "bench_e2e: check failed: "


def _relative(delta, ref):
    """delta / |ref|, with any non-zero delta over a zero ref infinite."""
    if ref != 0:
        return delta / abs(ref)
    return 0.0 if delta == 0 else float("inf") if delta > 0 else float("-inf")


def summarize(values):
    """(median, q1, q3) of a metric's samples."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


def verdict(base, head, better, bound):
    """The verdict on one metric's base and head samples (see above)."""
    b_med, b_q1, b_q3 = summarize(base)
    h_med = statistics.median(head)
    sign = 1 if better == "lower" else -1  # > 0: the head is worse
    worse_by = _relative(sign * (h_med - b_med), b_med)
    outside = h_med > b_q3 if better == "lower" else h_med < b_q1
    if worse_by > bound and outside:
        return REGRESSED
    if better == "lower":
        head_wins = max(head) < min(base)
    else:
        head_wins = min(head) > max(base)
    if _relative(b_q3 - b_q1, b_med) > bound and not head_wins:
        return UNRESOLVED
    return PASS


def _fmt(x):
    return f"{x:.6g}"


def judge(spec, runs):
    """Renders the verdict table and the exit status.

    `runs` maps each workload name to {"base": [...], "head": [...]}, one
    entry per run: a dict with bench_e2e's result line under "result"
    (None when the run gave none; its "metrics" map each name to
    {"value", "unit"}) and its failed checks under "checks".
    Returns (lines, exit status).
    """
    lines = [f"{'workload':<20} {'metric':<16} {'base median [q1, q3]':<32} "
             f"{'head median [q1, q3]':<32} {'head/base':>9} "
             f"{'spread':>7}  verdict"]
    failures = []
    verdicts = []
    for workload in (w["name"] for w in spec["workloads"]):
        sides = runs[workload]
        for side in ("base", "head"):
            for i, run in enumerate(sides[side]):
                result = run["result"]
                if result is not None and result.get("correct") is True:
                    continue
                why = "; ".join(run["checks"]) or (
                    "no result line" if result is None else
                    f"{result.get('failed')} of {result.get('attempted')} "
                    "passes and checks failed")
                failures.append(f"{workload} {side} run {i + 1}: {why}")
        complete = {side: [r["result"]["metrics"] for r in sides[side]
                           if r["result"] is not None]
                    for side in ("base", "head")}
        for metric in spec["end_to_end"]:
            name = metric["name"]
            base = [m[name]["value"] for m in complete["base"] if name in m]
            head = [m[name]["value"] for m in complete["head"] if name in m]
            missing = sum(map(len, complete.values())) - len(base) - len(head)
            if missing:
                failures.append(f"{workload} {name}: missing from {missing} "
                                "result lines")
            if len(base) < 2 or len(head) < 2:
                continue  # a failure above says why
            v = verdict(base, head, metric["better"], metric["bound"])
            verdicts.append(v)
            b_med, b_q1, b_q3 = summarize(base)
            h_med, h_q1, h_q3 = summarize(head)
            ratio = h_med / b_med if b_med else float("nan")
            spread = _relative(b_q3 - b_q1, b_med)
            lines.append(
                f"{workload:<20} {name:<16} "
                f"{f'{_fmt(b_med)} [{_fmt(b_q1)}, {_fmt(b_q3)}]':<32} "
                f"{f'{_fmt(h_med)} [{_fmt(h_q1)}, {_fmt(h_q3)}]':<32} "
                f"{ratio:>9.3f} {spread:>7.3f}  {v}"
                + (f" (bound {metric['bound']})" if v != PASS else ""))
    lines += [f"failed: {f}" for f in failures]
    if failures or REGRESSED in verdicts:
        status = 1
    elif UNRESOLVED in verdicts:
        status = 3
    else:
        status = 0
    outcome = {0: PASS, 1: "FAIL", 3: UNRESOLVED}[status]
    lines.append(f"perf guard: {outcome} ({verdicts.count(REGRESSED)} "
                 f"regressed, {verdicts.count(UNRESOLVED)} unresolved, "
                 f"{len(failures)} failures; exit {status})")
    return lines, status


def run_bench(checkout, workload, seed, seconds):
    """One bench_e2e run in `checkout`: its result line and failed checks."""
    proc = subprocess.run(
        [sys.executable, os.path.join("bench_e2e", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, check=False)
    checks = [line[len(CHECK_FAILED):] for line in proc.stderr.splitlines()
              if line.startswith(CHECK_FAILED)]
    result = None
    out = proc.stdout.strip().splitlines()
    try:
        result = json.loads(out[-1]) if out else None
    except json.JSONDecodeError:
        pass
    if not checks and (result is None or proc.returncode != 0):
        tail = proc.stderr.strip().splitlines()[-3:]
        checks.append(f"exit {proc.returncode}: " + " | ".join(tail))
    return {"result": result, "checks": checks}


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    base_dir, head_dir = (os.path.abspath(d) for d in argv[1:])
    with open(os.path.join(head_dir, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]
    total = len(spec["workloads"]) * len(SEEDS) * 2
    print(f"perf guard: base {base_dir}, head {head_dir}; {len(SEEDS)} pairs "
          f"per workload, seeds {SEEDS[0]}-{SEEDS[-1]}, {seconds} s runs",
          flush=True)
    runs = {}
    done = 0
    for workload in (w["name"] for w in spec["workloads"]):
        runs[workload] = {"base": [], "head": []}
        for pair, seed in enumerate(SEEDS):
            order = (("base", base_dir), ("head", head_dir))
            for side, checkout in order if pair % 2 == 0 else order[::-1]:
                run = run_bench(checkout, workload, seed, seconds)
                runs[workload][side].append(run)
                done += 1
                result = run["result"]
                state = ("ok" if result and result.get("correct") is True
                         else "FAILED")
                print(f"[{done}/{total}] {workload} seed {seed} {side}: "
                      f"{state}", file=sys.stderr, flush=True)
    lines, status = judge(spec, runs)
    print("\n".join(lines))
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv))
