#!/usr/bin/env python
"""Benchmark regression guard for the Agar hot paths.

Runs the pytest-benchmark micro-suite (knapsack solver, Reed-Solomon codec,
request monitor, engine scale-out, faulted replay, collaborative sharding),
writes the
results to ``BENCH_<date>.json`` in the repository root, and compares the
guarded benchmarks against ``benchmarks/baseline.json``.  The run fails
(exit code 1) if a guarded benchmark's mean regresses beyond its tolerance
band relative to the baseline.

Modes::

    python benchmarks/run_bench.py                     # run, record, compare
    python benchmarks/run_bench.py --update            # also rewrite the baseline
    python benchmarks/run_bench.py --smoke             # CI: run once, no gate
    python benchmarks/run_bench.py --compare BASELINE  # gated compare vs a file
    python benchmarks/run_bench.py --only a,b          # restrict to a subset
    make bench                                         # default mode, via make

``--compare`` is the *graduated* gate (ISSUE 5): it compares against an
arbitrary baseline file — either a committed baseline (``means_s`` format)
or a raw pytest-benchmark ``BENCH_*.json`` artifact — using **per-benchmark
tolerance bands**.  Bands live in the baseline file's ``tolerances`` map
and were derived from the spread of the accumulated CI ``BENCH_*.json``
artifacts (uploaded per commit since PR 3); benchmarks without a band use
``--tolerance``.  CI runs the codec and engine-scale benchmarks through
``--compare benchmarks/ci_baseline.json`` while the rest stay on
``--smoke``; see docs/performance.md.
"""

from __future__ import annotations

import argparse
import datetime as _datetime
import json
import os
import pathlib
import subprocess
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
BASELINE_PATH = REPO_ROOT / "benchmarks" / "baseline.json"

#: Benchmarks guarded against regression (ISSUE 1-5 acceptance criteria).
GUARDED_BENCHMARKS = (
    "test_bench_knapsack_solver",
    "test_bench_reconfiguration",
    "test_bench_reconfiguration_catalogue_scaling",
    "test_bench_reed_solomon_encode",
    "test_bench_reed_solomon_decode_with_parity",
    "test_bench_codec_encode_many",
    "test_bench_codec_packed_numba",
    "test_bench_codec_decode_small",
    "test_bench_codec_rebuild_row_large",
    "test_bench_request_monitor",
    "test_bench_engine_multi_client",
    "test_bench_engine_scale_closed_loop",
    "test_bench_engine_faulted",
    "test_bench_engine_hedged_faulted",
    "test_bench_engine_million_lane",
    "test_bench_agar_read_indexed",
    "test_bench_resilient_read_indexed",
    "test_bench_collab_sharded_rounds",
    "test_bench_serve_wire",
    "test_bench_gateway_dispatch",
    "test_bench_serve_wire_degraded",
    "test_bench_fig6_frankfurt",
)

#: Which file hosts each guarded benchmark.
_BENCH_FILES = {
    "test_bench_engine_multi_client": "test_bench_engine.py",
    "test_bench_engine_scale_closed_loop": "test_bench_engine.py",
    "test_bench_engine_faulted": "test_bench_engine.py",
    "test_bench_engine_hedged_faulted": "test_bench_engine.py",
    "test_bench_engine_million_lane": "test_bench_engine.py",
    "test_bench_agar_read_indexed": "test_bench_engine.py",
    "test_bench_resilient_read_indexed": "test_bench_engine.py",
    "test_bench_collab_sharded_rounds": "test_bench_collab.py",
    "test_bench_serve_wire": "test_bench_serve_wire.py",
    "test_bench_gateway_dispatch": "test_bench_serve_wire.py",
    "test_bench_serve_wire_degraded": "test_bench_serve_wire.py",
    "test_bench_fig6_frankfurt": "test_bench_fig6.py",
    "test_bench_codec_encode_many": "test_bench_codec.py",
    "test_bench_codec_packed_numba": "test_bench_codec.py",
    "test_bench_codec_decode_small": "test_bench_codec.py",
    "test_bench_codec_rebuild_row_large": "test_bench_codec.py",
    "test_bench_request_monitor": "test_bench_monitor.py",
}

#: Per-benchmark tolerance bands written into a refreshed baseline (relative
#: regression allowed before the gate fails).  Derived from the spread of the
#: accumulated BENCH_*.json artifacts: kernel-bound microbenchmarks are tight;
#: the engine/collaboration scenarios see scheduler-noise outliers on busy
#: single-core hosts and get correspondingly wider bands.
DEFAULT_TOLERANCES = {
    "test_bench_knapsack_solver": 0.20,
    # One full CacheManager.reconfigure (options + solve + install) at the
    # paper's 300 objects / 10 MB: five pedantic rounds of ~10 ms, so a
    # single slow round moves the mean — wider than the solver's own band.
    "test_bench_reconfiguration": 0.40,
    # One reconfiguration each at 300 / 1,000 / 3,000 objects over a 10 MB
    # cache (ISSUE 18), 40 rounds of ~8 ms: the catalogue axis.  The hard
    # t(3,000) <= 2.5 x t(300) bound inside the benchmark is the primary gate;
    # the band catches all three sizes slowing together.
    "test_bench_reconfiguration_catalogue_scaling": 0.40,
    "test_bench_reed_solomon_encode": 0.25,
    "test_bench_reed_solomon_decode_with_parity": 0.25,
    "test_bench_codec_encode_many": 0.30,
    "test_bench_codec_packed_numba": 0.35,
    # One 16 KiB decode (~20 us alone, ~30 us inside a suite since ISSUE 20):
    # half C calls, half the interpreter around them, so it sees interpreter
    # and allocator noise the MiB-sized codec rows average out.
    "test_bench_codec_decode_small": 0.35,
    # The same one-row rebuild of a 1 MiB object (ISSUE 20): eight blocks of
    # translated slices, joined and XOR-reduced, between two 1 MiB joins —
    # memory-bound (0.7-1.9 ms across one afternoon on the 2-core VM) and
    # allocator-heavy like the small row, hence the same band.
    "test_bench_codec_rebuild_row_large": 0.35,
    "test_bench_request_monitor": 0.30,
    "test_bench_engine_multi_client": 0.40,
    # The engine scenarios' bands were tightened from 0.75 when the means
    # were re-seeded for the ISSUE 7 wave drainer: the batched loop replaced
    # the per-event Python dispatch that drove the worst suite-context
    # outliers (~1.65x in-isolation mean in the earlier BENCH history).
    "test_bench_engine_scale_closed_loop": 0.60,
    "test_bench_engine_faulted": 0.60,
    # Resilient composition path (ISSUE 8): longer body than the plain
    # faulted scenario, similar suite-context noise profile.
    "test_bench_engine_hedged_faulted": 0.60,
    # Long-body benchmark (multi-second rounds): proportionally steadier.
    "test_bench_engine_million_lane": 0.50,
    # 20,000 warm Agar reads with no scheduler around them (ISSUE 23): ~0.1 s
    # rounds of pure interpreter work, steadier than the engine scenarios but
    # exposed to the same VM phases as the other interpreter-bound rows.
    "test_bench_agar_read_indexed": 0.35,
    # The same 20,000 reads through the resilient composer under an outage
    # (ISSUE 24): ~0.2 s rounds, the same noise profile.
    "test_bench_resilient_read_indexed": 0.35,
    "test_bench_collab_sharded_rounds": 0.50,
    # Wire path (PR 9): real sockets on a shared runner — widest band; the
    # hard >= 10k req/s floor inside the benchmark is the primary gate.
    "test_bench_serve_wire": 0.75,
    # The same hot read without sockets, event loop or load generator
    # (ISSUE 17): ~0.5 ms rounds of pure interpreter work, the noise profile
    # of the small-object decode row.
    "test_bench_gateway_dispatch": 0.35,
    # Degraded wire path (PR 10): crash/restart timing plus sockets —
    # same wide band; the conservation + recovery assertions and the
    # in-benchmark throughput floor are the primary gate.
    "test_bench_serve_wire_degraded": 0.75,
    # Fig. 6 end-to-end (graduated from smoke-only per the ROADMAP
    # carry-over): full experiment pipeline, scheduler-noise profile.
    "test_bench_fig6_frankfurt": 0.60,
}


def selectors_for(names: tuple[str, ...]) -> list[str]:
    """pytest selectors for the given guarded benchmark names."""
    return [
        f"benchmarks/{_BENCH_FILES.get(name, 'test_bench_algorithm.py')}::{name}"
        for name in names
    ]


def run_suite(json_path: pathlib.Path, smoke: bool = False,
              names: tuple[str, ...] = GUARDED_BENCHMARKS) -> int:
    """Run the benchmark subset, writing pytest-benchmark JSON to ``json_path``.

    In smoke mode the benchmarks run with minimal rounds and no baseline
    gate: CI uses it to assert the guarded paths still run — and to record
    the per-commit timings as a ``BENCH_*.json`` workflow artifact — without
    failing on shared-runner timing variance.
    """
    if smoke:
        command = [
            sys.executable, "-m", "pytest", *selectors_for(names),
            "-q", "--benchmark-json", str(json_path),
            "--benchmark-min-rounds", "1", "--benchmark-max-time", "0.5",
            "--benchmark-warmup", "off",
        ]
    else:
        command = [
            sys.executable, "-m", "pytest", *selectors_for(names),
            "-q", "--benchmark-json", str(json_path),
        ]
    environment = dict(os.environ)
    if not smoke:
        # Full guarded runs enable the million-lane scenario's gated shape
        # (262k clients, the >= 1e7 req/min floor and the 10^6-lane
        # demonstration body).  Smoke mode and plain pytest runs keep its
        # light shape: they exist to prove the guarded paths run, not to
        # spend minutes re-measuring them per tier-1 invocation.
        environment["AGAR_BENCH_GATED"] = "1"
    src = str(REPO_ROOT / "src")
    existing = environment.get("PYTHONPATH")
    environment["PYTHONPATH"] = f"{src}:{existing}" if existing else src
    completed = subprocess.run(command, cwd=REPO_ROOT, env=environment)
    return completed.returncode


def load_means(json_path: pathlib.Path) -> dict[str, float]:
    """Extract {benchmark name: mean seconds} from a pytest-benchmark JSON."""
    payload = json.loads(json_path.read_text())
    return {entry["name"]: entry["stats"]["mean"] for entry in payload["benchmarks"]}


def load_baseline(path: pathlib.Path) -> tuple[dict[str, float], dict[str, float]]:
    """Load ``(means, tolerances)`` from a baseline file.

    Accepts both formats: a committed baseline (``{"means_s": ...,
    "tolerances": ...}``) and a raw pytest-benchmark ``BENCH_*.json``
    artifact (``{"benchmarks": [...]}``, no tolerance bands).
    """
    payload = json.loads(path.read_text())
    if "means_s" in payload:
        tolerances = dict(payload.get("tolerances", {}))
        return dict(payload["means_s"]), tolerances
    if "benchmarks" in payload:
        return (
            {entry["name"]: entry["stats"]["mean"] for entry in payload["benchmarks"]},
            {},
        )
    raise ValueError(
        f"{path} is neither a committed baseline (means_s) nor a "
        "pytest-benchmark artifact (benchmarks)"
    )


def compare(means: dict[str, float], baseline: dict[str, float],
            tolerance: float, tolerances: dict[str, float] | None = None,
            names: tuple[str, ...] = GUARDED_BENCHMARKS,
            out=sys.stdout) -> list[str]:
    """Return a list of human-readable regression failures.

    ``tolerances`` holds per-benchmark bands; benchmarks without one use the
    flat ``tolerance``.
    """
    tolerances = tolerances or {}
    failures = []
    for name in names:
        mean = means.get(name)
        base = baseline.get(name)
        if mean is None:
            failures.append(f"{name}: missing from the benchmark run")
            continue
        if base is None:
            failures.append(f"{name}: missing from the committed baseline")
            continue
        band = float(tolerances.get(name, tolerance))
        limit = base * (1.0 + band)
        status = "OK" if mean <= limit else "REGRESSION"
        print(f"  {name}: {mean * 1000:8.3f} ms  (baseline {base * 1000:8.3f} ms, "
              f"band {band:.0%}, limit {limit * 1000:8.3f} ms) {status}", file=out)
        if mean > limit:
            failures.append(
                f"{name}: mean {mean * 1000:.3f} ms exceeds baseline "
                f"{base * 1000:.3f} ms by more than {band:.0%}"
            )
    return failures


def compare_against_file(json_path: pathlib.Path, baseline_path: pathlib.Path,
                         tolerance: float,
                         names: tuple[str, ...] = GUARDED_BENCHMARKS,
                         out=sys.stdout) -> list[str]:
    """The gated comparison: one run's JSON vs a baseline file's bands."""
    means = load_means(json_path)
    baseline_means, tolerances = load_baseline(baseline_path)
    print(f"comparing against {baseline_path} "
          f"(default tolerance {tolerance:.0%}, per-benchmark bands "
          f"{'present' if tolerances else 'absent'}):", file=out)
    return compare(means, baseline_means, tolerance, tolerances, names, out=out)


def _parse_only(value: str | None) -> tuple[str, ...]:
    if not value:
        return GUARDED_BENCHMARKS
    names = tuple(name.strip() for name in value.split(",") if name.strip())
    unknown = [name for name in names if name not in GUARDED_BENCHMARKS]
    if unknown:
        raise SystemExit(
            f"--only names not in the guarded set: {', '.join(unknown)} "
            f"(guarded: {', '.join(GUARDED_BENCHMARKS)})"
        )
    return names


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tolerance", type=float, default=0.20,
                        help="fallback relative regression band for benchmarks "
                             "without a per-benchmark tolerance (default 0.20)")
    parser.add_argument("--update", action="store_true",
                        help="rewrite benchmarks/baseline.json with this run's "
                             "means and the default tolerance bands")
    parser.add_argument("--output", type=pathlib.Path, default=None,
                        help="result path (default BENCH_<date>.json in the repo root)")
    parser.add_argument("--only", type=str, default=None,
                        help="comma-separated subset of guarded benchmarks to "
                             "run and compare (default: all)")
    parser.add_argument("--smoke", action="store_true",
                        help="run the guarded benchmarks once as plain tests, "
                             "without timing statistics or baseline comparison "
                             "(for CI paths where timing variance is uncontrolled)")
    parser.add_argument("--compare", type=pathlib.Path, default=None,
                        metavar="BASELINE",
                        help="gated mode: compare this run against BASELINE "
                             "(a committed baseline or a BENCH_*.json artifact) "
                             "using its per-benchmark tolerance bands")
    arguments = parser.parse_args(argv)
    if arguments.smoke and arguments.compare:
        parser.error("--smoke and --compare are mutually exclusive")

    names = _parse_only(arguments.only)
    date = _datetime.date.today().isoformat()
    # Resolve against the invoker's cwd before handing to pytest (which runs
    # with cwd=REPO_ROOT); the result may live anywhere, including outside
    # the repository.
    json_path = (arguments.output or (REPO_ROOT / f"BENCH_{date}.json")).resolve()
    json_path.parent.mkdir(parents=True, exist_ok=True)

    return_code = run_suite(json_path, smoke=arguments.smoke, names=names)
    if return_code != 0:
        print(f"benchmark suite failed with exit code {return_code}", file=sys.stderr)
        return return_code
    if arguments.smoke:
        print(f"smoke mode: guarded benchmarks ran (results in {json_path}); "
              "no baseline comparison.")
        return 0

    try:
        display_path = json_path.relative_to(REPO_ROOT)
    except ValueError:
        display_path = json_path
    print(f"\nwrote {display_path}")

    if arguments.compare is not None:
        failures = compare_against_file(
            json_path, arguments.compare, arguments.tolerance, names)
        if failures:
            print("\nbenchmark regressions detected:", file=sys.stderr)
            for failure in failures:
                print(f"  - {failure}", file=sys.stderr)
            return 1
        print("no regressions.")
        return 0

    means = load_means(json_path)
    if arguments.update or not BASELINE_PATH.exists():
        # Merge into the existing baseline so `--update --only subset`
        # refreshes only the subset instead of discarding the other
        # benchmarks' committed means.
        if BASELINE_PATH.exists():
            previous_means, previous_tolerances = load_baseline(BASELINE_PATH)
        else:
            previous_means, previous_tolerances = {}, {}
        merged_means = dict(previous_means)
        merged_means.update(
            {name: means[name] for name in GUARDED_BENCHMARKS if name in means})
        # DEFAULT_TOLERANCES is the maintained source of the bands; carry
        # over any extra bands a baseline file added for unlisted names.
        merged_tolerances = dict(previous_tolerances)
        merged_tolerances.update({name: DEFAULT_TOLERANCES[name]
                                  for name in GUARDED_BENCHMARKS
                                  if name in DEFAULT_TOLERANCES})
        baseline_payload = {
            "updated": date,
            "tolerance": arguments.tolerance,
            "means_s": {name: merged_means[name] for name in GUARDED_BENCHMARKS
                        if name in merged_means},
            "tolerances": merged_tolerances,
        }
        BASELINE_PATH.write_text(json.dumps(baseline_payload, indent=2) + "\n")
        try:
            display_baseline = BASELINE_PATH.relative_to(REPO_ROOT)
        except ValueError:
            display_baseline = BASELINE_PATH
        print(f"baseline written to {display_baseline}")
        return 0

    baseline_means, tolerances = load_baseline(BASELINE_PATH)
    print(f"comparing against baseline (default tolerance {arguments.tolerance:.0%}):")
    failures = compare(means, baseline_means, arguments.tolerance, tolerances, names)
    if failures:
        print("\nbenchmark regressions detected:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print("no regressions.")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
