"""Freeze the printed output of the simulated figures, character for character.

``tests/experiments`` asserts shapes and inequalities; nothing pins a figure's
numbers across versions, so a driver edit that moved a paper number by one ulp
would pass.  This file records the full text ``cli.main(argv + ["--smoke"],
out=buffer)`` prints for 21 commands — Table I, the Fig. 9 popularity CDFs
and every simulated figure in its paper setting (one client in one region),
and each simulated figure through each engine flag: several regions and
clients, a single region, heterogeneous ``--region`` deployments, Poisson
arrivals, §VI collaboration, the sharded executor, an outage sweep — plus
the rows of ``run_agar_variants(ExperimentSettings.smoke())`` by ``repr``.
The wire experiments (``serve``, ``fig_chaos``) print wall-clock numbers and
are left out.  Only the CLI and one public runner are driven, so the same
script runs unchanged on any commit.

Generate (refuses to overwrite without ``--force``)::

    PYTHONPATH=src python tests/golden/freeze_figures.py

``tests/experiments/test_figures_golden.py`` replays every command and compares
the strings with the committed ``tests/golden/figures.json``.
"""

from __future__ import annotations

import argparse
import io
import json
import subprocess
import sys
from pathlib import Path

from repro.experiments import cli
from repro.experiments.ablation import run_agar_variants
from repro.experiments.common import ExperimentSettings

GOLDEN_PATH = Path(__file__).with_name("figures.json")

#: Key of the one entry that is not a CLI command.
ABLATION = "run_agar_variants"

COMMANDS: tuple[str, ...] = (
    "table1",
    "fig2",
    "fig6",
    "fig7",
    "fig8a",
    "fig8b",
    "fig9",
    "fig10",
    "multiregion",
    "fig_collab",
    "fig_failures",
    "fig6 --regions frankfurt,sydney --clients-per-region 2",
    "fig6 --regions frankfurt",
    "fig6 --region frankfurt:agar:20MB --region sydney:lfu-5",
    "fig6 --regions frankfurt,dublin --collaboration --arrival-rate 2",
    "fig8a --clients-per-region 2",
    "fig8b --regions frankfurt,sydney --arrival-rate 3",
    "multiregion --region frankfurt:agar:20MB --region sydney:lfu-5:5MB",
    "fig_collab --sharded",
    "fig_failures --sharded",
    "fig_failures --regions frankfurt --outage-fraction 0.2",
)


def cases() -> tuple[str, ...]:
    """Every entry of the golden file, in order."""
    return (*COMMANDS, ABLATION)


def run_case(name: str) -> str:
    """The text one entry produces."""
    if name == ABLATION:
        return "\n".join(repr(row)
                         for row in run_agar_variants(ExperimentSettings.smoke()))
    buffer = io.StringIO()
    code = cli.main([*name.split(), "--smoke"], out=buffer)
    if code != 0:
        raise RuntimeError(f"{name!r} exited with {code}")
    return buffer.getvalue()


def build() -> dict[str, str]:
    return {name: run_case(name) for name in cases()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--force", action="store_true",
                        help="overwrite an existing figures.json")
    args = parser.parse_args(argv)
    if GOLDEN_PATH.exists() and not args.force:
        print(f"{GOLDEN_PATH} exists; pass --force to regenerate it",
              file=sys.stderr)
        return 2
    golden = build()
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=GOLDEN_PATH.parent, check=True,
            capture_output=True, text=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    # One output line per file line, so a diff of the file reads as a diff of
    # the figures.
    blocks = [f' "generated_at_commit": {json.dumps(commit)}']
    for name, text in golden.items():
        lines = ",\n".join(f"  {json.dumps(line)}"
                           for line in text.splitlines(keepends=True))
        blocks.append(f" {json.dumps(name)}: [\n{lines}\n ]")
    GOLDEN_PATH.write_text("{\n" + ",\n".join(blocks) + "\n}\n")
    print(f"wrote {GOLDEN_PATH} ({len(golden)} entries)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
