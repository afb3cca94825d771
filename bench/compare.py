"""Compare two result files of ``bench/run.py --out``, metric by metric.

``python3 bench/compare.py A.json B.json`` prints one row per workload and
end-to-end metric, judging B against A with nothing but the bounds of
``BENCHMARK.json``:

==========  ===========================================================
better      B beats A by more than the bound
within      B is within the bound of A, either way
worse       B is worse than A by more than the bound
unresolved  a run's own slice-to-slice spread is wider than the bound,
            so the two values cannot be told apart at that bound
==========  ===========================================================

A run's spread is the inter-quartile distance of its timed slices over
``sqrt(slices)``, about the standard error of the median it reports; only
``ops_per_ref_s`` has one, every other metric is a single reading.  The exit
code is 1 when any row is ``worse``.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parent.parent
                   / "BENCHMARK.json").read_text())


def _resolution(result: dict, metric: str) -> float:
    """Share of the median below which this run cannot resolve ``metric``."""
    detail = result.get("detail")
    if metric != "ops_per_ref_s" or not detail:
        return 0.0
    return detail["corrected_iqr_share"] / math.sqrt(detail["timed_slices"])


def judge(entry: dict, before: dict, after: dict) -> tuple[str, float]:
    """Verdict on one metric and B's change as a share of A (+ is better)."""
    name, bound = entry["name"], entry["bound"]
    old = before["metrics"][name]["value"]
    new = after["metrics"][name]["value"]
    gain = (new - old) / old if entry["better"] == "higher" else (old - new) / old
    if max(_resolution(before, name), _resolution(after, name)) > bound:
        return "unresolved", gain
    if gain < -bound:
        return "worse", gain
    return ("better" if gain > bound else "within"), gain


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    before, after = (json.loads(Path(path).read_text())["workloads"]
                     for path in argv[1:])
    worse = 0
    print(f"{'workload':<15} {'metric':<14} {'A':>13} {'B':>13} "
          f"{'change':>8} {'bound':>6}  verdict")
    for workload in (entry["name"] for entry in SPEC["workloads"]):
        old, new = (side[workload]["end_to_end"] for side in (before, after))
        if not (old["correct"] and new["correct"]):
            print(f"{workload:<15} failed its checks in "
                  f"{'A' if not old['correct'] else 'B'}: worse")
            worse += 1
            continue
        for entry in SPEC["end_to_end"]:
            verdict, gain = judge(entry, old, new)
            worse += verdict == "worse"
            name = entry["name"]
            print(f"{workload:<15} {name:<14} "
                  f"{old['metrics'][name]['value']:>13.6g} "
                  f"{new['metrics'][name]['value']:>13.6g} "
                  f"{gain:>+8.1%} {entry['bound']:>6.0%}  {verdict}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
