#!/usr/bin/env python
"""Re-seed ``benchmarks/ci_baseline.json`` from BENCH_*.json artifacts.

The gated CI benchmark comparison needs committed per-benchmark means that
reflect the *hosted runners* the gate runs on, not a developer machine.
Hosted runs upload their raw pytest-benchmark output as ``BENCH_*.json``
workflow artifacts; this tool aggregates any number of those artifacts into
a fresh committed baseline:

    python tools/reseed_baseline.py BENCH_2026-07-29.json BENCH_<date>.json  # committed artifact + a local gated run
    python tools/reseed_baseline.py --glob            # every BENCH_*.json in the repo root
    python tools/reseed_baseline.py --glob --dry-run  # print, write nothing

Per benchmark the *median* mean across artifacts is used, so one noisy run
cannot skew the committed number.  Benchmarks in the guarded set that no
artifact covers (e.g. freshly added ones measured only locally so far) keep
their existing committed mean, and the tool says so — re-run it once the
first hosted artifacts containing them accumulate.  Tolerance bands always
come from ``DEFAULT_TOLERANCES`` in ``benchmarks/run_bench.py``, the
maintained source of the bands.

See docs/performance.md for the full procedure.
"""

from __future__ import annotations

import argparse
import datetime
import json
import pathlib
import statistics
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
CI_BASELINE_PATH = REPO_ROOT / "benchmarks" / "ci_baseline.json"

sys.path.insert(0, str(REPO_ROOT / "benchmarks"))
from run_bench import DEFAULT_TOLERANCES, GUARDED_BENCHMARKS  # noqa: E402


def artifact_means(path: pathlib.Path) -> dict[str, float]:
    """``{benchmark name: mean seconds}`` from one pytest-benchmark JSON."""
    payload = json.loads(path.read_text())
    if "benchmarks" not in payload:
        raise ValueError(f"{path} is not a pytest-benchmark artifact "
                         "(no 'benchmarks' key)")
    return {entry["name"]: entry["stats"]["mean"]
            for entry in payload["benchmarks"]}


def aggregate(artifacts: list[pathlib.Path],
              names: tuple[str, ...] = GUARDED_BENCHMARKS,
              ) -> tuple[dict[str, float], dict[str, list[float]]]:
    """Median mean per guarded benchmark across the artifacts."""
    samples: dict[str, list[float]] = {name: [] for name in names}
    for path in artifacts:
        for name, mean in artifact_means(path).items():
            if name in samples:
                samples[name].append(mean)
    medians = {name: statistics.median(values)
               for name, values in samples.items() if values}
    return medians, samples


def reseed(artifacts: list[pathlib.Path], *, source: str,
           out=sys.stdout) -> dict:
    """Build the new committed-baseline payload (does not write it)."""
    medians, samples = aggregate(artifacts)
    previous: dict[str, float] = {}
    if CI_BASELINE_PATH.exists():
        previous = dict(json.loads(CI_BASELINE_PATH.read_text())
                        .get("means_s", {}))

    means: dict[str, float] = {}
    for name in GUARDED_BENCHMARKS:
        if name in medians:
            count = len(samples[name])
            means[name] = medians[name]
            print(f"  {name}: {medians[name] * 1000:9.3f} ms "
                  f"(median of {count} artifact{'s' if count != 1 else ''})",
                  file=out)
        elif name in previous:
            means[name] = previous[name]
            print(f"  {name}: {previous[name] * 1000:9.3f} ms "
                  "(no artifact coverage — kept the committed mean)",
                  file=out)
        else:
            print(f"  {name}: no artifact coverage and no committed mean — "
                  "omitted (gate this benchmark once artifacts exist)",
                  file=out)

    return {
        "updated": datetime.date.today().isoformat(),
        "source": source,
        "tolerance": 0.5,
        "means_s": means,
        "tolerances": {name: DEFAULT_TOLERANCES[name]
                       for name in GUARDED_BENCHMARKS
                       if name in DEFAULT_TOLERANCES and name in means},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("artifacts", nargs="*", type=pathlib.Path,
                        help="BENCH_*.json pytest-benchmark artifacts")
    parser.add_argument("--glob", action="store_true",
                        help="also include every BENCH_*.json in the repo root")
    parser.add_argument("--dry-run", action="store_true",
                        help="print the new baseline without writing it")
    parser.add_argument("--source", type=str, default=None,
                        help="provenance note recorded in the baseline "
                             "(default: the artifact file names)")
    arguments = parser.parse_args(argv)

    artifacts = list(arguments.artifacts)
    if arguments.glob:
        artifacts.extend(sorted(REPO_ROOT.glob("BENCH_*.json")))
    artifacts = sorted(set(path.resolve() for path in artifacts))
    if not artifacts:
        parser.error("no artifacts given (pass paths or --glob)")
    missing = [path for path in artifacts if not path.exists()]
    if missing:
        parser.error(f"artifacts not found: {', '.join(map(str, missing))}")

    names = ", ".join(path.name for path in artifacts)
    print(f"re-seeding from {len(artifacts)} artifact(s): {names}")
    source = arguments.source or (
        f"tools/reseed_baseline.py over {names}; tolerance bands from "
        "benchmarks/run_bench.py DEFAULT_TOLERANCES")
    payload = reseed(artifacts, source=source)

    if arguments.dry_run:
        print(json.dumps(payload, indent=2))
        return 0
    CI_BASELINE_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {CI_BASELINE_PATH.relative_to(REPO_ROOT)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
