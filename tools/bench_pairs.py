#!/usr/bin/env python
"""Alternating parent/change pairs of ``bench/run.py`` workloads.

Every performance PR since 16 ran this by hand.  On a shared box two versions
can only be compared interleaved, so for each pair the tool runs

    python3 bench/run.py --workload W --seed S --seconds N --trace 0

once in the parent's checkout and once in the change's — the harness of each
checkout, unedited — alternating which side goes first, with one fresh seed
per pair (the same seed on both sides).  It prints every run, then both
sides' medians and quartiles per end-to-end metric, the pairs won on the
claimed metric, whether the decision-only readings (``model_read_ms``,
``model_p99_ms``, ``correct``, ``failed``) agree seed by seed (``wire_hot`` and
``wire_rw`` stamp wall-clock arrivals, so their ``model_*`` move in the fifth
digit even parent against parent: there they are held to their
``BENCHMARK.json`` bounds like any other metric), and the verdict
of the ``choosing-metrics`` rule for a claimed gain: the change ahead in at
least nine tenths of the pairs (ties for neither) *and* a median gap wider
than the distance between the parent's own quartiles.  Every other metric is
judged against its ``BENCHMARK.json`` bound: *worse* past it, *unresolved*
when the parent's spread exceeds the bound (unless every run of the change
beats every run of the parent), *within* otherwise.

    make bench-pairs PARENT=/root/scratch/parent WORKLOAD=engine_clean PAIRS=10 SECONDS=10

writes ``docs/results/<date>-<label>-pairs-<workload>.json`` (label:
``issue<N>`` off the change's ISSUE.md, else ``local``).  ``--workload`` also
takes a comma list, or ``all`` for every workload ``BENCHMARK.json`` names:
the workloads run one after the other, each writes its own file, and one
closing table gives every workload's verdict per metric — the rows a
performance PR reports for the workloads it must not move.  ``--claim
METRIC`` then claims the gain on every listed workload, ``--claim
WORKLOAD:METRIC`` on that one only.  The exit code is 1 when a run fails its
checks, a decision-only reading differs, or a metric is worse than its bound
— not when a claimed gain is merely unproven.
"""

from __future__ import annotations

import argparse
import datetime
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: What one run's result line must repeat exactly on both sides of a pair.
DECISION_ONLY = ("model_read_ms", "model_p99_ms")

#: Workloads whose reads are stamped with wall-clock arrivals: their
#: decision-only readings are not run-to-run identical, so they are held to
#: their bounds instead of to equality.
WALL_CLOCK_WORKLOADS = ("wire_hot", "wire_rw")

DEFAULT_COMMAND = ("python3", "bench/run.py")


def run_once(command: list[str], cwd: Path, workload: str, seed: int,
             seconds: int) -> dict:
    """One run of ``command`` in ``cwd``; its last stdout line, flattened."""
    done = subprocess.run(
        [*command, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=cwd, stdout=subprocess.PIPE, text=True, timeout=120 + 12 * seconds)
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"{' '.join(command)} in {cwd} printed no result "
                         f"(exit code {done.returncode})")
    result = json.loads(lines[-1])
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            **{name: metric["value"] for name, metric in result["metrics"].items()}}


def run_pairs(sides: dict[str, tuple[list[str], Path]], workload: str,
              pairs: int, seconds: int, first_seed: int, report=print) -> list[dict]:
    """``pairs`` alternating runs of ``sides["parent"]`` and ``sides["change"]``."""
    rows = []
    for index in range(pairs):
        seed = first_seed + index
        order = ("parent", "change") if index % 2 == 0 else ("change", "parent")
        row = {"seed": seed, "first": order[0]}
        for side in order:
            command, cwd = sides[side]
            row[side] = run_once(command, cwd, workload, seed, seconds)
            # The decision-only readings in full: they are compared digit
            # for digit.
            report(f"pair {index + 1:>2} seed {seed} {side:<6} "
                   + " ".join(f"{name}={value:.6g}" if isinstance(value, float)
                              and name not in DECISION_ONLY else f"{name}={value}"
                              for name, value in row[side].items()))
        rows.append(row)
    return rows


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    low, median, high = statistics.quantiles(values, n=4)
    return low, median, high


def summarise(rows: list[dict], spec: dict, claimed: str | None,
              workload: str | None = None) -> dict:
    """Medians, quartiles and a verdict per end-to-end metric of ``spec``.

    ``decision_only_agree`` is ``None`` on a wall-clock workload, whose
    decision-only readings only get their verdicts against the bounds.
    """
    exact = workload not in WALL_CLOCK_WORKLOADS
    summary: dict = {"metrics": {}, "decision_only_agree": True if exact else None,
                     "all_correct": True}
    for row in rows:
        parent, change = row["parent"], row["change"]
        if not (parent["correct"] and change["correct"]) or parent["failed"] \
                or change["failed"]:
            summary["all_correct"] = False
        if exact and any(parent.get(name) != change.get(name) for name in DECISION_ONLY):
            summary["decision_only_agree"] = False
    for entry in spec["end_to_end"]:
        name, higher = entry["name"], entry["better"] == "higher"
        parent = [row["parent"][name] for row in rows]
        change = [row["change"][name] for row in rows]
        sign = 1.0 if higher else -1.0
        wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
        losses = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
        p_low, p_median, p_high = _quartiles(parent)
        c_low, c_median, c_high = _quartiles(change)
        gain = sign * (c_median - p_median) / p_median if p_median else 0.0
        spread = (p_high - p_low) / p_median if p_median else 0.0
        clean_sweep = (min(change) > max(parent) if higher
                       else max(change) < min(parent))
        if name == claimed:
            met = (wins >= 0.9 * len(rows)
                   and sign * (c_median - p_median) > p_high - p_low)
            verdict = "gain shown" if met else "gain not shown"
        elif gain < -entry["bound"]:
            verdict = "worse"
        elif spread > entry["bound"] and not clean_sweep:
            verdict = "unresolved"
        else:
            verdict = "within"
        summary["metrics"][name] = {
            "parent_median": p_median, "parent_quartiles": [p_low, p_high],
            "change_median": c_median, "change_quartiles": [c_low, c_high],
            "ratio": c_median / p_median if p_median else None,
            "gain": gain, "bound": entry["bound"],
            "pairs_won": wins, "pairs_lost": losses,
            "pairs_tied": len(rows) - wins - losses, "verdict": verdict}
    return summary


def render(summary: dict, pairs: int) -> str:
    lines = [f"{'metric':<15} {'parent median':>14} {'[q1, q3]':>26} "
             f"{'change median':>14} {'[q1, q3]':>26} {'ratio':>7} "
             f"{'won':>5}  verdict"]
    for name, row in summary["metrics"].items():
        lines.append(
            f"{name:<15} {row['parent_median']:>14.6g} "
            f"{'[%.6g, %.6g]' % tuple(row['parent_quartiles']):>26} "
            f"{row['change_median']:>14.6g} "
            f"{'[%.6g, %.6g]' % tuple(row['change_quartiles']):>26} "
            f"{row['ratio']:>7.3f} {row['pairs_won']:>2}/{pairs:<2}  "
            f"{row['verdict']}")
    agree = summary["decision_only_agree"]
    lines.append("decision-only readings (model_read_ms, model_p99_ms) "
                 + ("held to their bounds (wall-clock arrivals)" if agree is None
                    else "agree seed by seed" if agree else "DIFFER between the sides"))
    lines.append("every run correct, none failed" if summary["all_correct"]
                 else "A RUN FAILED ITS CHECKS")
    return "\n".join(lines)


def render_verdicts(summaries: dict[str, dict]) -> str:
    """One row per workload, one verdict (and median ratio) per metric."""
    metrics = list(next(iter(summaries.values()))["metrics"])
    lines = [f"{'workload':<15} " + " ".join(f"{name:>24}" for name in metrics)
             + "  checks"]
    for workload, summary in summaries.items():
        cells = []
        for name in metrics:
            row = summary["metrics"][name]
            ratio = "n/a" if row["ratio"] is None else f"x{row['ratio']:.3f}"
            cells.append(f"{row['verdict'] + ' ' + ratio:>24}")
        if not summary["all_correct"]:
            checks = "FAILED"
        elif summary["decision_only_agree"] is False:
            checks = "model_* DIFFER"
        else:
            checks = "ok"
        lines.append(f"{workload:<15} " + " ".join(cells) + f"  {checks}")
    return "\n".join(lines)


def _commit(path: Path, side: str) -> str:
    """``HEAD`` of the checkout, ``+dirty`` when its tracked files differ, and
    ``unknown``, with a warning on stderr, when ``path`` is not a git
    checkout (a ``git archive`` copy, say)."""
    def git(*arguments: str) -> str:
        return subprocess.run(["git", "-C", str(path), *arguments],
                              capture_output=True, text=True).stdout.strip()
    head = git("rev-parse", "HEAD")
    if not head:
        print(f"warning: --{side} {path} is not a git checkout: the pair file "
              f"cannot name the {side} commit", file=sys.stderr)
        return "unknown"
    return head + ("+dirty" if git("status", "--porcelain", "-uno") else "")


def _label(change: Path) -> str:
    issue = change / "ISSUE.md"
    if issue.exists():
        match = re.match(r"#\s*ISSUE\s+(\d+)", issue.read_text())
        if match:
            return f"issue{match.group(1)}"
    return "local"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, type=Path,
                        help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, default=REPO_ROOT,
                        help="checkout of the change (default: this one)")
    parser.add_argument("--workload", default="engine_clean",
                        help="one workload, a comma list, or 'all'")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=None,
                        help="run length (default: BENCHMARK.json's)")
    parser.add_argument("--first-seed", type=int, default=101)
    parser.add_argument("--claim", default=None, metavar="[WORKLOAD:]METRIC",
                        help="the end-to-end metric a gain is claimed on "
                             "(on every listed workload, or on WORKLOAD only)")
    parser.add_argument("--out", type=Path, default=None,
                        help="result path (one workload only)")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    workloads = ([entry["name"] for entry in spec["workloads"]]
                 if args.workload == "all"
                 else [name for name in args.workload.split(",") if name])
    if not workloads:
        parser.error("--workload names no workload")
    if args.out is not None and len(workloads) > 1:
        parser.error("--out takes one workload; each workload writes its own file")
    claim_on, _, claimed = (args.claim or "").rpartition(":")
    if claim_on and claim_on not in workloads:
        parser.error(f"--claim names workload {claim_on!r}, which is not run")
    seconds = args.seconds or spec["run_seconds"]
    sides = {"parent": (list(DEFAULT_COMMAND), args.parent.resolve()),
             "change": (list(DEFAULT_COMMAND), args.change.resolve())}
    commits = {"parent_commit": _commit(args.parent, "parent"),
               "change_commit": _commit(args.change, "change")}
    summaries: dict[str, dict] = {}
    for workload in workloads:
        claim = claimed if claimed and claim_on in ("", workload) else None
        if len(workloads) > 1:
            print(f"== {workload} ==")
        rows = run_pairs(sides, workload, args.pairs, seconds, args.first_seed)
        summaries[workload] = summary = summarise(rows, spec, claim, workload)
        print()
        print(render(summary, len(rows)))

        out = args.out or (args.change / "docs" / "results" / (
            f"{datetime.date.today().isoformat()}-{_label(args.change)}-pairs-"
            f"{workload}.json"))
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps({
            "workload": workload, "seconds": seconds, "claimed": claim,
            **commits, "pairs": rows, "summary": summary}, indent=1) + "\n")
        print(f"wrote {out}")
    if len(workloads) > 1:
        print()
        print(render_verdicts(summaries))
    bad = any(not summary["all_correct"] or summary["decision_only_agree"] is False
              or any(row["verdict"] == "worse"
                     for row in summary["metrics"].values())
              for summary in summaries.values())
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
