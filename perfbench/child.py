"""One cold `verify` process, timed from its own start.

Usage (run.py starts it; one JSON argument):

    python3 perfbench/child.py '{"t0": ..., "argv": [...], "report": ...,
                                 "workload": ..., "trace": false,
                                 "oracle_seed": null}'

`t0` is the parent's `time.perf_counter()` taken just before it started
this process; on Linux that clock is CLOCK_MONOTONIC, shared by every
process, so `setup_s` and `wall_s` include interpreter start-up and the
package import.  Set-up ends once the configuration's context is built:
the group's elements and multiplication table, the HCAlgebra and the pin
cover.  The suites then run through `dunkl.cli.main`, which writes the
report; `wall_s` ends when it returns.  The independent output checks
(`oracle_seed` set) and the trace summary run after that and are not
timed.  The last line of stdout is one JSON object.
"""

import json
import random
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def peak_rss_mb():
    """Peak resident set of this process image (VmHWM), in MB."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def main(spec):
    clock = time.perf_counter
    sys.path.insert(0, str(SRC))
    trace = None
    if spec["trace"]:
        import tracer
        trace = tracer.Tracer(spec["t0"], clock)
    import dunkl.cli as cli
    if Path(cli.__file__).resolve().parent != SRC / "dunkl":
        raise RuntimeError(f"dunkl imported from {cli.__file__}, not {SRC}")
    if trace is not None:
        tracer.install(trace, cli.SUITE_FUNCS)

    argv = spec["argv"] + ["--out", spec["report"]]
    config = cli.config_from_args(cli.build_parser().parse_args(argv))
    ctx = cli.Context(config)
    if trace is None:
        ctx.rd.elements
        ctx.rd.mul_table
    else:
        with trace.span("groups", "groups.enumerate_s"):
            ctx.rd.elements
        with trace.span("groups", "groups.mul_table_s"):
            ctx.rd.mul_table
    ctx.alg                                   # HAlgebra and PinCover
    setup_end = clock()

    # hand the built context to run_config instead of a fresh one
    build_context = cli.Context
    cli.Context = lambda _config: ctx
    try:
        code = cli.main(argv)
    finally:
        cli.Context = build_context
    end = clock()
    out = {"setup_end": setup_end, "end": end, "exit": code,
           "peak_rss_mb": peak_rss_mb()}

    if trace is not None:
        out["trace"] = {
            "self_s": trace.self_s,
            "idle_s": trace.finish(end),
            "counts": trace.counts,
            "inclusive": trace.inclusive,
            "maxima": trace.maxima,
            "memo": {"cherednik.straighten_memo":
                     len(ctx.alg.h._straighten_memo),
                     "cherednik.ycomm_memo": len(ctx.alg.h._ycomm_memo)},
        }
    if spec["oracle_seed"] is not None:
        import oracles
        with open(spec["report"], encoding="ascii") as fh:
            report = json.load(fh)
        check = oracles.ORACLES[spec["workload"]]
        out["oracle"] = check(ctx, report, random.Random(spec["oracle_seed"]))
    return out


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
