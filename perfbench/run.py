"""Benchmark of the `dunkl` verifier: cold `verify` runs, one at a time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (it needs `src/dunkl`).  Each
round starts one fresh `verify` process (perfbench/child.py) and waits
for it; rounds follow one another until S seconds of rounds have been
measured, so every run attempts whole rounds.  No threads, no parallel
processes.

--trace 0 prints the end-to-end metrics, each the median over the rounds:
  wall_s       process start until the report is written
  setup_s      process start until the context is built (import included)
  peak_rss_mb  peak resident memory of the verify process
--trace 1 runs one untraced round and one traced round, and prints the
per-layer metrics of the traced one (see README.md).

The first round also runs the workload's independent output checks
(oracles.py) after its timed part, with inputs drawn from --seed.  Every
round's report must be byte-identical to the first apart from timings.
The last stdout line is one JSON object: correct, attempted, failed,
metrics.  Exit status 0 on a result, 2 when the benchmark cannot run.
"""

import argparse
import compileall
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
OUT_DIR = ROOT / ".bench_build" / "perfbench"

WORKLOADS = {
    "symbolic-a1x4": ["--family", "A1^4", "--suite", "osp",
                      "--suite", "relations", "--suite", "vogan",
                      "--suite", "filtration"],
    "specialised-b2": ["--family", "B", "--rank", "2", "--suite", "all",
                       "--specialize", "s=2,c1=1/3,c2=1/5",
                       "--max-degree", "10"],
    "cover-s5": ["--family", "A", "--rank", "4", "--suite", "admissible"],
}

# a run must end within 180 s; no round may start or last beyond this
RUN_DEADLINE_S = 170
# the traced run's layer self times plus its untraced remainder must
# account for its wall time within this share
ACCOUNTING_MARGIN = 0.01


class BenchError(RuntimeError):
    pass


def run_round(workload, index, deadline, trace=False, oracle_seed=None):
    """Start one verify process, wait for it; returns (child result, report)."""
    report_path = OUT_DIR / f"{workload}-{index}.json"
    spec = {"argv": WORKLOADS[workload], "report": str(report_path),
            "workload": workload, "trace": trace, "oracle_seed": oracle_seed}
    t0 = time.perf_counter()
    spec["t0"] = t0
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), json.dumps(spec)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=max(deadline - t0, 0.001))
    if proc.returncode != 0:
        raise BenchError(f"{workload} round {index} exited "
                         f"{proc.returncode}:\n{proc.stderr[-4000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(report_path, encoding="ascii") as fh:
        report = json.load(fh)
    result["wall_s"] = result["end"] - t0
    result["setup_s"] = result["setup_end"] - t0
    if not 0 < result["setup_s"] < result["wall_s"]:
        raise BenchError(f"inconsistent clocks: {result}")
    return result, report


def without_timing(report):
    return json.dumps({**report, "checks": [
        {k: v for k, v in rec.items() if k != "elapsed_ms"}
        for rec in report["checks"]]}, sort_keys=True)


def tally(reports):
    """(attempted, failed, problems) over the non-skipped check records."""
    attempted = failed = 0
    problems = []
    first = without_timing(reports[0])
    for n, rep in enumerate(reports):
        statuses = [rec["status"] for rec in rep["checks"]]
        attempted += sum(s != "skipped" for s in statuses)
        failed += statuses.count("fail")
        if without_timing(rep) != first:
            problems.append(f"round {n} report differs from round 0")
    return attempted, failed, problems


def end_to_end(results):
    def median(key):
        return statistics.median(r[key] for r in results)
    return {"wall_s": {"value": median("wall_s"), "unit": "s"},
            "setup_s": {"value": median("setup_s"), "unit": "s"},
            "peak_rss_mb": {"value": median("peak_rss_mb"), "unit": "MB"}}


def per_layer(traced, untraced):
    """Per-layer metrics of one traced round, and the accounting check.

    Names ending in `_s` are seconds; the others are counts."""
    tr = traced["trace"]
    values = {**tr["inclusive"], **tr["counts"], **tr["maxima"], **tr["memo"]}
    values.update((f"{layer}.self_s", v) for layer, v in tr["self_s"].items())
    values["trace.untraced_s"] = tr["idle_s"]
    values["trace.overhead_s"] = traced["wall_s"] - untraced["wall_s"]

    problems = [f"negative self time in {layer}"
                for layer, v in tr["self_s"].items() if v < 0]
    covered = sum(tr["self_s"].values()) + tr["idle_s"]
    if abs(covered - traced["wall_s"]) > ACCOUNTING_MARGIN * traced["wall_s"]:
        problems.append(f"self times plus remainder {covered:.4f} s do not "
                        f"account for the traced wall {traced['wall_s']:.4f} s")
    metrics = {name: {"value": v, "unit": "s" if name.endswith("_s")
                      else "count"} for name, v in values.items()}
    return metrics, problems


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "dunkl" / "cli.py").is_file():
        print(f"no dunkl source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if time.get_clock_info("perf_counter").implementation != \
            "clock_gettime(CLOCK_MONOTONIC)":
        print("perf_counter is not CLOCK_MONOTONIC; cross-process times "
              "would be meaningless", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    # byte-compile up front so that no round pays for it
    compileall.compile_dir(str(ROOT / "src" / "dunkl"), quiet=1)
    compileall.compile_dir(str(HERE), quiet=1)

    deadline = time.perf_counter() + RUN_DEADLINE_S
    try:
        first, report = run_round(args.workload, 0, deadline,
                                  oracle_seed=args.seed)
        results, reports = [first], [report]
        if args.trace:
            traced, report = run_round(args.workload, 1, deadline, trace=True)
            results.append(traced)
            reports.append(report)
            metrics, problems = per_layer(traced, first)
        else:
            while sum(r["wall_s"] for r in results) < args.seconds:
                result, report = run_round(args.workload, len(results),
                                           deadline)
                results.append(result)
                reports.append(report)
            metrics, problems = end_to_end(results), []
    except (BenchError, subprocess.TimeoutExpired, OSError, ValueError,
            KeyError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2

    attempted, failed, report_problems = tally(reports)
    problems += report_problems + first["oracle"]
    for msg in problems:
        print(f"check failed: {msg}", file=sys.stderr)
    for r in results:
        print(f"round: wall {r['wall_s']:.3f} s  setup {r['setup_s']:.3f} s  "
              f"rss {r['peak_rss_mb']:.1f} MB  exit {r['exit']}",
              file=sys.stderr)
    print(json.dumps({"correct": not problems and attempted > 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
