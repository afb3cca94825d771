"""Command-line entry point: regenerate any of the paper's tables and figures.

Installed as ``agar-experiments``.  Examples::

    agar-experiments table1
    agar-experiments fig6 --quick
    agar-experiments fig6 --quick --regions frankfurt,sydney --clients-per-region 4
    agar-experiments multiregion --quick --arrival-rate 2 --collaboration
    agar-experiments multiregion --quick --region frankfurt:agar:256MB --region sydney:lfu-5:64MB
    agar-experiments fig_collab --quick
    agar-experiments fig_collab --quick --sharded --neighbor-read-ms 20,120,400
    agar-experiments all --quick

Each command prints the rows/series of the corresponding figure as a text
table; ``--quick`` runs the reduced-scale settings used by the benchmark suite,
the default is the paper's full scale (5 runs × 1,000 reads).

The engine flags (``--regions``, ``--region``, ``--clients-per-region``,
``--arrival-rate``, ``--collaboration``) replace the paper's setting of the
Fig. 6/7/8 runners — one closed-loop client, each region deployed on its own —
with one multi-region deployment, and shape the ``multiregion``, ``fig_collab``
and ``fig_failures`` deployments; an experiment named on its own that cannot
honour one of them rejects it.  Heterogeneous deployments use the
repeatable ``--region NAME[:STRATEGY[:CACHE]]`` form: each region can pin its
own read strategy and cache size (e.g. ``--region eu:agar:256MB --region
ap:lfu-5:64MB``); either override may be omitted (``sydney::64MB``).

:data:`EXPERIMENTS` is the index of the package: one :class:`Experiment` per
subcommand, in the order ``all`` runs them.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass, field, replace
from typing import Any, Callable

from repro.experiments.common import EngineOptions, ExperimentSettings, RegionSpecOption
from repro.experiments.fig2_motivating import render_fig2, run_fig2
from repro.experiments.fig6_policies import (agar_advantage, check_pins, render_fig6,
                                             render_fig7, run_policy_comparison)
from repro.experiments.fig8_sweeps import (agar_lead_by_group, check_no_cache_size,
                                           check_no_pinned_strategy, render_sweep,
                                           run_fig8a, run_fig8b)
from repro.experiments.fig9_popularity import render_fig9, run_fig9
from repro.experiments.fig10_cache_contents import render_fig10, run_fig10
from repro.experiments.fig_chaos import (CHAOS_REGIONS, check_regions, render_fig_chaos,
                                         run_fig_chaos)
from repro.experiments.fig_collab import check_pairing, render_fig_collab, run_fig_collab
from repro.experiments.fig_failures import (DEFAULT_FAULT_REGION, DEFAULT_OUTAGE_FRACTIONS,
                                            DEFAULT_REGIONS, check_sweep, render_fig_failures,
                                            run_fig_failures)
from repro.experiments.microbench import run_capacity_scaling, run_microbench
from repro.experiments.multiregion import (DEFAULT_OPTIONS, render_multiregion,
                                           run_multiregion_scaling)
from repro.experiments.serve_wire import SERVE_REGIONS, render_serve_wire, run_serve_wire
from repro.experiments.table1_latency import render_table1, run_table1
from repro.geo.topology import default_topology

#: The experiment-specific flags by their ``args`` name, as usage errors
#: spell them, in the order they are checked.
FLAGS = {
    "regions": "--regions",
    "region": "--region",
    "clients_per_region": "--clients-per-region",
    "arrival_rate": "--arrival-rate",
    "collaboration": "--collaboration/--no-collaboration",
    "neighbor_read_ms": "--neighbor-read-ms",
    "collab_period": "--collab-period",
    "outage_fraction": "--outage-fraction",
    "fault_region": "--fault-region",
    "sharded": "--sharded",
}

#: The engine flags: an experiment taking all of them is an engine experiment.
ENGINE = ("regions", "region", "clients_per_region", "arrival_rate", "collaboration")


@dataclass(frozen=True)
class Experiment:
    """One subcommand: its flags, its checks, its run and its report.

    Attributes:
        name: the subcommand.
        run: ``run(settings, args)`` runs the experiment on the parsed flags.
        render: the printed report of what ``run`` returned.
        flags: the :data:`FLAGS` it takes.
        refuse: flags of ``flags`` that it turns down when named on its own,
            with the reason (``all`` passes them on regardless).
        check: ``check(args)`` raises ``ValueError`` for flag values the
            runner would refuse; called before any experiment runs.
    """

    name: str
    run: Callable[[ExperimentSettings, argparse.Namespace], Any]
    render: Callable[[Any], str]
    flags: tuple[str, ...] = ()
    refuse: dict[str, str] = field(default_factory=dict)
    check: Callable[[argparse.Namespace], None] = lambda args: None


def _settings(args: argparse.Namespace) -> ExperimentSettings:
    if args.smoke:
        return ExperimentSettings.smoke()
    return ExperimentSettings.quick() if args.quick else ExperimentSettings.paper()


def _parse_float_list(text: str, flag: str) -> tuple[float, ...]:
    """Parse a comma-separated list of finite, positive floats for a sweep flag."""
    values = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            value = float(part)
        except ValueError:
            raise ValueError(f"malformed {flag} value {part!r}") from None
        if not math.isfinite(value):
            raise ValueError(f"{flag} values must be finite, got {part!r}")
        if value <= 0:
            raise ValueError(f"{flag} values must be positive, got {part!r}")
        values.append(value)
    if not values:
        raise ValueError(f"{flag} needs at least one value")
    return tuple(values)


def _parse_values(args: argparse.Namespace) -> None:
    """Replace the text of the value flags in ``args`` with parsed values, and
    check every region name once against the topology."""
    for dest in ("neighbor_read_ms", "collab_period", "outage_fraction"):
        if getattr(args, dest) is not None:
            setattr(args, dest, _parse_float_list(getattr(args, dest), FLAGS[dest]))
    if args.regions is not None:
        args.regions = tuple(name.strip() for name in args.regions.split(",") if name.strip())
        if not args.regions:
            raise ValueError("--regions needs at least one region")
    if args.region:
        args.region = tuple(RegionSpecOption.parse(text) for text in args.region)
    known = default_topology().region_names
    for flag, names in (("--regions", args.regions or ()),
                        ("--region", [spec.region for spec in args.region or ()]),
                        ("--fault-region", [args.fault_region] if args.fault_region else [])):
        for name in names:
            if name not in known:
                raise ValueError(f"unknown region {name!r} in {flag} "
                                 f"(expected one of {', '.join(known)})")
        if len(set(names)) != len(names):
            raise ValueError(f"{flag} names a region more than once")


def _engine_options(args: argparse.Namespace) -> EngineOptions | None:
    """Engine options of the flags given, for the figure runners, which only
    leave the paper's setting when a flag is given explicitly."""
    options = EngineOptions(
        regions=args.regions,
        clients_per_region=args.clients_per_region or 1,
        arrival_rate_rps=args.arrival_rate,
        collaboration=bool(args.collaboration),
        region_specs=args.region,
    )
    return options if options.active else None


def _text(render: Callable[[Any], Any]) -> Callable[[Any], str]:
    """A report of a runner whose render returns a ``Table``."""
    return lambda result: render(result).render()


def _render_fig6(rows) -> str:
    summaries = {region: agar_advantage(rows, region)
                 for region in sorted({row.region for row in rows})}
    return "\n".join([render_fig6(rows).render(), *(
        f"{region}: Agar {summary['vs_best_pct']:.1f}% lower latency than the best "
        f"static policy ({summary['best_other']}), {summary['vs_worst_pct']:.1f}% lower "
        f"than the worst ({summary['worst_other']})"
        for region, summary in summaries.items() if summary)])


def _render_sweep(title: str) -> Callable[[Any], str]:
    def render(points) -> str:
        return "\n".join([render_sweep(points, title).render(), *(
            f"{group}: Agar {lead:+.1f}% vs best static policy"
            for group, lead in sorted(agar_lead_by_group(points).items()))])
    return render


def _render_fig_chaos(variants) -> str:
    return "\n".join([render_fig_chaos(variants).render(), *(
        f"{variant.name}: {len(variant.recoveries)} recoveries, "
        f"mean {variant.mean_recovery_ms:.1f} ms, "
        f"{variant.mean_restored_fraction * 100.0:.0f}% of pre-crash cache restored"
        for variant in variants if variant.recoveries)])


def _render_serve(results) -> str:
    return "\n".join([render_serve_wire(results).render(), *(
        f"{region}: {result.throughput_rps:.0f} req/s measured over "
        f"{result.requests} wire requests ({result.errors} errors)"
        for region, result in results.items())])


def _render_microbench(result) -> str:
    single, scaling = result
    return "\n".join([
        f"request processing: {single.request_processing_ms:.3f} ms/request (paper: ~0.5 ms)",
        f"reconfiguration:    {single.reconfiguration_ms:.1f} ms for a "
        f"{single.cache_capacity_mb:.0f} MB cache, {single.candidate_keys} candidate objects "
        f"(paper: ~5 ms)",
        *(f"  cache {row.cache_capacity_mb:5.0f} MB -> reconfiguration "
          f"{row.reconfiguration_ms:8.1f} ms" for row in scaling)])


def _run_multiregion(settings: ExperimentSettings, args: argparse.Namespace):
    """``multiregion`` is a multi-region experiment: the flags given override
    its acceptance scenario (:data:`DEFAULT_OPTIONS`) one by one."""
    given = {"regions": args.regions, "clients_per_region": args.clients_per_region,
             "arrival_rate_rps": args.arrival_rate, "collaboration": args.collaboration}
    options = replace(DEFAULT_OPTIONS, **{name: value for name, value in given.items()
                                          if value is not None})
    if args.region:
        options = replace(options, regions=None, region_specs=args.region)
    return run_multiregion_scaling(settings, options=options), options


def _check_fig8a(args: argparse.Namespace) -> None:
    check_no_pinned_strategy(_engine_options(args))
    check_no_cache_size(_engine_options(args))


EXPERIMENTS: tuple[Experiment, ...] = (
    Experiment("table1", lambda settings, args: run_table1(), _text(render_table1)),
    Experiment("fig2", lambda settings, args: run_fig2(settings), _text(render_fig2)),
    Experiment("fig6", lambda settings, args: run_policy_comparison(
        settings, engine=_engine_options(args)), _render_fig6, ENGINE,
        check=lambda args: check_pins(_engine_options(args))),
    Experiment("fig7", lambda settings, args: run_policy_comparison(
        settings, engine=_engine_options(args)), _text(render_fig7), ENGINE,
        check=lambda args: check_pins(_engine_options(args))),
    Experiment("fig8a", lambda settings, args: run_fig8a(settings, engine=_engine_options(args)),
               _render_sweep("Figure 8a — average latency (ms) vs cache size"), ENGINE,
               check=_check_fig8a),
    Experiment("fig8b", lambda settings, args: run_fig8b(settings, engine=_engine_options(args)),
               _render_sweep("Figure 8b — average latency (ms) vs workload"), ENGINE,
               check=lambda args: check_no_pinned_strategy(_engine_options(args))),
    Experiment("fig9", lambda settings, args: run_fig9(settings), _text(render_fig9)),
    Experiment("fig10", lambda settings, args: run_fig10(settings), _text(render_fig10)),
    Experiment("fig_collab", lambda settings, args: run_fig_collab(
        settings, options=_engine_options(args), neighbor_read_ms_values=args.neighbor_read_ms,
        periods=args.collab_period, sharded=args.sharded), render_fig_collab,
        (*ENGINE, "neighbor_read_ms", "collab_period", "sharded"), refuse={
            "region": "fig_collab sweeps fixed-strategy (agar) pairings; use "
                      "--regions to override the pairing",
            "collaboration": "fig_collab compares collaboration against independent "
                             "caches itself; --collaboration/--no-collaboration does "
                             "not apply"},
        check=lambda args: check_pairing(args.regions) if args.regions else None),
    Experiment("fig_failures", lambda settings, args: run_fig_failures(
        settings, options=_engine_options(args), outage_fractions=args.outage_fraction,
        fault_region=args.fault_region or DEFAULT_FAULT_REGION, sharded=args.sharded),
        render_fig_failures, (*ENGINE, "outage_fraction", "fault_region", "sharded"), refuse={
            "region": "fig_failures sweeps the strategy itself; use --regions to "
                      "override the client regions",
            "collaboration": "fig_failures sweeps collaboration on/off itself; "
                             "--collaboration/--no-collaboration does not apply"},
        check=lambda args: check_sweep(args.regions or DEFAULT_REGIONS,
                                       args.fault_region or DEFAULT_FAULT_REGION,
                                       args.outage_fraction or DEFAULT_OUTAGE_FRACTIONS)),
    Experiment("fig_chaos", lambda settings, args: run_fig_chaos(
        settings, regions=args.regions or CHAOS_REGIONS), _render_fig_chaos, ("regions",),
        check=lambda args: check_regions(args.regions or CHAOS_REGIONS)),
    Experiment("microbench", lambda settings, args: (
        run_microbench(settings), run_capacity_scaling(settings)), _render_microbench),
    Experiment("multiregion", _run_multiregion,
               lambda result: render_multiregion(*result).render(), ENGINE),
    Experiment("serve", lambda settings, args: run_serve_wire(
        settings, regions=args.regions or SERVE_REGIONS, rate_rps=args.arrival_rate),
        _render_serve, ("regions", "arrival_rate")),
)


def _flag_error(flag: str, name: str) -> str:
    """The usage error for ``flag`` given to experiment ``name``, which does
    not take it: the experiments that do, engine experiments first."""
    takers = [experiment.name for experiment in sorted(
        EXPERIMENTS, key=lambda experiment: not set(ENGINE) <= set(experiment.flags))
        if flag in experiment.flags]
    if flag in ENGINE:
        return f"{FLAGS[flag]} does not apply to {name} (only to {', '.join(takers)})"
    return f"{FLAGS[flag]} only applies to {'/'.join(takers)}"


def main(argv: list[str] | None = None, out=sys.stdout) -> int:
    """CLI entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(
        prog="agar-experiments",
        description="Regenerate the tables and figures of the Agar paper (ICDCS 2017).",
    )
    parser.add_argument("experiment",
                        choices=(*(experiment.name for experiment in EXPERIMENTS), "all"),
                        help="which table/figure to regenerate")
    parser.add_argument("--quick", action="store_true",
                        help="reduced scale (2 runs x 400 reads) instead of the paper's 5 x 1000")
    parser.add_argument("--smoke", action="store_true",
                        help="minimal scale (1 run x 120 reads): asserts the "
                             "command executes; numbers are not meaningful "
                             "(used by the CI docs job and the figures golden)")
    parser.add_argument("--neighbor-read-ms", default=None, metavar="MS1,MS2,...",
                        help="neighbour-cache read latencies swept by fig_collab "
                             "(comma separated; default 10,50,120,250,500)")
    parser.add_argument("--collab-period", default=None, metavar="S1,S2,...",
                        help="collaboration periods in seconds swept by "
                             "fig_collab (comma separated; default 30)")
    parser.add_argument("--sharded", action="store_true",
                        help="run fig_collab/fig_failures through the "
                             "process-parallel sharded engine (one worker per "
                             "region, §VI message-passing rounds)")
    parser.add_argument("--outage-fraction", default=None, metavar="F1,F2,...",
                        help="outage durations swept by fig_failures, as "
                             "fractions of the clean-run duration (comma "
                             "separated, each in (0, 1); default 0.15,0.3)")
    parser.add_argument("--fault-region", default=None, metavar="REGION",
                        help="backend region fig_failures takes down "
                             "(default sao_paulo; must not be a client region)")
    parser.add_argument("--regions", default=None, metavar="R1,R2,...",
                        help="client regions of the simulated deployment "
                             "(comma separated; engine experiments only)")
    parser.add_argument("--region", action="append", default=None,
                        metavar="NAME[:STRATEGY[:CACHE]]",
                        help="one region of a heterogeneous deployment, with "
                             "optional pinned strategy and per-region cache size "
                             "(e.g. frankfurt:agar:256MB); repeatable, engine "
                             "experiments only, mutually exclusive with --regions")
    parser.add_argument("--clients-per-region", type=int, default=None, metavar="N",
                        help="concurrent clients per region (engine experiments only)")
    parser.add_argument("--arrival-rate", type=float, default=None, metavar="RPS",
                        help="open-loop Poisson arrival rate per client in req/s "
                             "(default: closed loop; engine experiments only)")
    parser.add_argument("--collaboration", action=argparse.BooleanOptionalAction,
                        default=None,
                        help="enable §VI cache collaboration between the regions' "
                             "Agar nodes (multiregion default: on; engine "
                             "experiments only)")
    args = parser.parse_args(argv)
    if args.clients_per_region is not None and args.clients_per_region <= 0:
        parser.error("--clients-per-region must be positive")
    if args.arrival_rate is not None and not math.isfinite(args.arrival_rate):
        parser.error("--arrival-rate must be finite")
    if args.arrival_rate is not None and args.arrival_rate <= 0:
        parser.error("--arrival-rate must be positive")
    if args.region and args.regions:
        parser.error("--region and --regions are mutually exclusive")
    if args.quick and args.smoke:
        parser.error("--quick and --smoke are mutually exclusive")
    selected = [experiment for experiment in EXPERIMENTS
                if args.experiment in (experiment.name, "all")]
    if args.experiment != "all":
        # Naming one experiment and handing it a flag it would ignore is a
        # usage error, not a silent one-client run.  (`all` passes each flag
        # on to the experiments that take it.)
        (experiment,) = selected
        for flag in FLAGS:
            if getattr(args, flag) == parser.get_default(flag):
                continue
            if flag in experiment.refuse:
                parser.error(experiment.refuse[flag])
            if flag not in experiment.flags:
                parser.error(_flag_error(flag, experiment.name))
    try:
        _parse_values(args)
        for experiment in selected:
            experiment.check(args)
    except ValueError as error:
        parser.error(str(error))
    settings = _settings(args)
    for experiment in selected:
        print(f"=== {experiment.name} ===", file=out)
        print(experiment.render(experiment.run(settings, args)), file=out)
        print(file=out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
