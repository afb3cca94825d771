"""The benchmark's one command.

``python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1``
runs one workload in this interpreter and prints, as the last line of its
standard output, one JSON object ``{"correct", "attempted", "failed",
"metrics"}``: the end-to-end metrics of ``BENCHMARK.json`` with ``--trace
0``, the per-layer metrics with ``--trace 1`` (a traced run; its spans go to
``bench/out/trace_<workload>.jsonl``).  The exit code is 1 when any output
failed its check.

Without ``--workload`` it runs all six workloads one after another, each
pass in a fresh interpreter, prints every metric by name and unit as a
table, and with ``--out`` writes the complete result file that
``bench/compare.py`` reads.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
# The script's own directory leads ``sys.path``; swap it for the checkout
# root so that ``bench`` imports as a package (``bench/trace.py`` must not
# shadow the standard library's ``trace``) and add the program's sources.
sys.path[0] = str(ROOT)
sys.path.insert(1, str(ROOT / "src"))

from bench.refclock import REF_NOMINAL_S  # noqa: E402 — needs the path above

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    low, median, high = statistics.quantiles(values, n=4)
    return low, median, high


def _spread(values: list[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    low, median, high = _quartiles(values)
    return (high - low) / median if median else 0.0


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(outcome) -> dict[str, dict]:
    import numpy as np

    model = np.asarray(outcome.model_ms)
    rates = [piece.corrected_rate for piece in outcome.untraced]
    # Reference-seconds, like the rates: the median set-up's work scaled by
    # how the kernel ran among the set-ups.
    setup_s = (statistics.median(outcome.setup_work_s) * REF_NOMINAL_S
               / statistics.mean(outcome.setup_ref_s))
    return {
        "setup_s": _metric(setup_s, "s"),
        "ops_per_ref_s": _metric(statistics.median(rates), "1/s"),
        "model_read_ms": _metric(float(model.mean()), "ms"),
        "model_p99_ms": _metric(float(np.percentile(model, 99.0)), "ms"),
        "peak_rss_mb": _metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
    }


def per_layer(outcome) -> dict[str, float]:
    """Every per-layer metric, from the traced slices' spans and the counters."""
    fold = outcome.tracer.fold()
    work_s = sum(piece.work_s for piece in outcome.traced)
    calls, self_s = fold.calls, fold.self_s
    untraced = [piece.corrected_rate for piece in outcome.untraced]
    traced = [piece.corrected_rate for piece in outcome.traced]
    every = outcome.untraced + outcome.traced
    # A ``read_indexed`` that falls back to ``read`` is one read, off the
    # indexed path.
    fallbacks = fold.nested["strategies.read", "strategies.read_indexed"]
    reads = (calls["strategies.read"] + calls["strategies.read_indexed"]
             - fallbacks)
    decodes = calls["erasure.decode"]
    decode_s = fold.total_s["erasure.decode"]
    layers = dict(outcome.counters)
    layers.update({
        "ops_per_s": statistics.median(p.raw_rate for p in every),
        "ref_unit_ms": statistics.median(p.ref_unit_s for p in every) * 1e3,
        "refclock.raw_iqr_share": _spread([p.raw_rate for p in outcome.untraced]),
        "refclock.corrected_iqr_share": _spread(untraced),
        "failed_share": outcome.failed / max(outcome.attempted, 1),
        "client.cpu_share": (self_s["client.send"]
                             + self_s["client.receive"]) / work_s,
        "protocol.parse_us": fold.self_us(
            "protocol.parse", "protocol.parse_incomplete",
            per=calls["protocol.parse"]),
        "protocol.build_us": fold.self_us("protocol.build"),
        "gateway.handler_us": fold.self_us("gateway.handler"),
        "gateway.loop_share": self_s["gateway.loop"] / work_s,
        "ledger.entry_us": fold.self_us("ledger.entry"),
        "strategies.read_us": fold.self_us(
            "strategies.read", "strategies.read_indexed", per=reads),
        "strategies.reads": reads,
        "strategies.indexed_share": (
            (calls["strategies.read_indexed"] - fallbacks) / reads
            if reads else 0.0),
        "cache.hit_ratio": (outcome.hits / len(outcome.model_ms)
                            if outcome.model_ms else 0.0),
        "core.reconfigure_ms": fold.total_s["core.reconfigure"] * 1e3
        / max(calls["core.reconfigure"], 1),
        "core.monitor_ms": fold.self_us("core.monitor") / 1e3,
        "core.options_ms": fold.self_us("core.options") / 1e3,
        "core.knapsack_ms": fold.self_us("core.knapsack") / 1e3,
        "core.install_ms": fold.self_us("core.install") / 1e3,
        "backend.get_chunks_us": fold.self_us("backend.get_chunks"),
        "backend.get_chunks_calls": calls["backend.get_chunks"],
        "backend.put_us": fold.self_us("backend.put"),
        "erasure.decode_us": fold.self_us("erasure.decode"),
        "erasure.decodes": decodes,
        "erasure.decode_mb_s": (decodes * outcome.object_bytes / decode_s / 1e6
                                if decode_s else 0.0),
        "erasure.encode_us": fold.self_us("erasure.encode"),
        "erasure.encodes": calls["erasure.encode"],
        "engine.execute_s": fold.total_s["engine.execute"]
        / max(calls["engine.execute"], 1),
        "engine.self_share": self_s["engine.execute"] / work_s,
        "trace.coverage_share": fold.top_level_s / work_s,
        "trace.overhead_share": 1.0 - (statistics.median(traced)
                                       / statistics.median(untraced)),
    })
    return layers


def run_one(args) -> int:
    from bench.workloads import RunConfig, run_workload

    config = RunConfig(seed=args.seed, seconds=args.seconds,
                       traced=bool(args.trace), smoke=args.smoke,
                       corrupt=args.self_test_corrupt)
    outcome = run_workload(args.workload, config)
    for failure in outcome.failures:
        print(f"FAILED CHECK: {failure}", file=sys.stderr)
    units = {entry["name"]: entry["unit"] for entry in SPEC["per_layer"]}
    if config.traced:
        layers = per_layer(outcome)
        unknown = layers.keys() - units.keys()
        if unknown:
            raise SystemExit(f"not in BENCHMARK.json: {sorted(unknown)}")
        # A layer the workload never enters reports 0 for its counters.
        metrics = {name: _metric(float(layers.get(name, 0.0)), unit)
                   for name, unit in units.items()}
        outcome.tracer.write(BENCH / "out" / f"trace_{args.workload}.jsonl")
    else:
        metrics = end_to_end(outcome)
    result = {
        "correct": outcome.failed == 0 and outcome.attempted > 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }
    if args.detail:
        rates = [piece.corrected_rate for piece in outcome.untraced]
        low, _median, high = _quartiles(rates)
        result["detail"] = {
            "timed_slices": len(rates),
            "ops_per_ref_s_quartiles": [low, high],
            "raw_iqr_share": _spread([p.raw_rate for p in outcome.untraced]),
            "corrected_iqr_share": _spread(rates),
            "model_samples": len(outcome.model_ms),
            "setup_samples": len(outcome.setup_work_s),
            "setup_raw_s": statistics.median(outcome.setup_work_s),
        }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


# ---------------------------------------------------------------------- #
# All workloads, one fresh interpreter per pass
# ---------------------------------------------------------------------- #
def _spawn(args, workload: str, trace: int) -> dict:
    command = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(trace), "--detail"]
    if args.smoke:
        command.append("--smoke")
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                          timeout=180)
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"{workload} (trace {trace}) printed no result, "
                         f"exit code {done.returncode}")
    result = json.loads(lines[-1])
    result["exit_code"] = done.returncode
    return result


def _environment() -> dict:
    import numpy

    commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                            capture_output=True, text=True).stdout.strip()
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "commit": commit or "unknown"}


def _print_table(results: dict) -> None:
    for workload, passes in results.items():
        for title, result in passes.items():
            print(f"\n{workload} [{title}]  attempted {result['attempted']}  "
                  f"failed {result['failed']}  "
                  f"{'ok' if result['correct'] else 'INCORRECT'}")
            idle = 0
            for name, metric in result["metrics"].items():
                if title == "per_layer" and metric["value"] == 0:
                    idle += 1
                    continue
                print(f"  {name:<30} {metric['value']:>16.6g} {metric['unit']}")
            if idle:
                print(f"  ({idle} metrics of layers this workload never "
                      f"enters read 0)")
            detail = result.get("detail")
            if detail and title == "end_to_end":
                print(f"  ({detail['timed_slices']} timed slices; "
                      f"inter-quartile spread raw "
                      f"{detail['raw_iqr_share']:.1%}, drift-corrected "
                      f"{detail['corrected_iqr_share']:.1%})")


def run_all(args) -> int:
    passes = {None: (0, 1), 0: (0,), 1: (1,)}[args.trace]
    titles = {0: "end_to_end", 1: "per_layer"}
    results: dict[str, dict] = {}
    for entry in SPEC["workloads"]:
        name = entry["name"]
        results[name] = {titles[trace]: _spawn(args, name, trace)
                         for trace in passes}
    _print_table(results)
    correct = all(result["correct"] and result["exit_code"] == 0
                  for passes in results.values() for result in passes.values())
    if args.out:
        document = {"seed": args.seed, "seconds": args.seconds,
                    "smoke": args.smoke, "environment": _environment(),
                    "workloads": results}
        Path(args.out).write_text(json.dumps(document, indent=1) + "\n")
    print(f"\n{'all checks passed' if correct else 'CHECKS FAILED'}")
    return 0 if correct else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload",
                        choices=[entry["name"] for entry in SPEC["workloads"]])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?",
                        const=1, default=None)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny shapes: checks the harness, measures nothing")
    parser.add_argument("--out", help="write the full result file here")
    parser.add_argument("--detail", action="store_true",
                        help="add slice statistics to the result line")
    parser.add_argument("--self-test-corrupt", action="store_true",
                        help="damage one response body; the run must fail")
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if args.workload is None:
        return run_all(args)
    if args.self_test_corrupt and not args.workload.startswith("wire_"):
        parser.error("--self-test-corrupt needs a wire workload")
    args.trace = args.trace or 0
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
