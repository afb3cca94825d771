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
"""

from __future__ import annotations

import argparse
import sys

from repro.experiments.common import (
    EVALUATION_REGIONS,
    EngineOptions,
    ExperimentSettings,
    RegionSpecOption,
)
from repro.experiments.fig2_motivating import render_fig2, run_fig2
from repro.experiments.fig6_policies import agar_advantage, render_fig6, render_fig7, run_policy_comparison
from repro.experiments.fig8_sweeps import agar_lead_by_group, render_sweep, run_fig8a, run_fig8b
from repro.experiments.fig9_popularity import render_fig9, run_fig9
from repro.experiments.fig10_cache_contents import render_fig10, run_fig10
from repro.experiments.fig_chaos import (
    FigChaosOptions,
    render_fig_chaos,
    run_fig_chaos,
)
from repro.experiments.fig_collab import render_fig_collab, run_fig_collab
from repro.experiments.fig_failures import render_fig_failures, run_fig_failures
from repro.experiments.microbench import run_capacity_scaling, run_microbench
from repro.experiments.multiregion import (
    DEFAULT_ARRIVAL_RATE_RPS,
    render_multiregion,
    run_multiregion_scaling,
)
from repro.experiments.serve_wire import (
    ServeWireOptions,
    render_serve_wire,
    run_serve_wire,
)
from repro.experiments.table1_latency import render_table1, run_table1

EXPERIMENTS = ("table1", "fig2", "fig6", "fig7", "fig8a", "fig8b", "fig9", "fig10",
               "fig_collab", "fig_failures", "fig_chaos", "microbench",
               "multiregion", "serve")

#: Experiments that understand the engine flags.
ENGINE_EXPERIMENTS = ("fig6", "fig7", "fig8a", "fig8b", "fig_collab", "fig_failures",
                      "multiregion")


def _settings(args: argparse.Namespace) -> ExperimentSettings:
    if args.smoke:
        return ExperimentSettings.smoke()
    return ExperimentSettings.quick() if args.quick else ExperimentSettings.paper()


def _parse_float_list(text: str, flag: str) -> tuple[float, ...]:
    """Parse a comma-separated list of positive floats for a sweep flag."""
    values = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            value = float(part)
        except ValueError:
            raise ValueError(f"malformed {flag} value {part!r}") from None
        if value <= 0:
            raise ValueError(f"{flag} values must be positive, got {part!r}")
        values.append(value)
    if not values:
        raise ValueError(f"{flag} needs at least one value")
    return tuple(values)


def _engine_options(args: argparse.Namespace, for_multiregion: bool,
                    region_specs: tuple[RegionSpecOption, ...] | None
                    ) -> EngineOptions | None:
    """Build engine options from the CLI flags.

    ``multiregion`` is a multi-region experiment, so missing flags fall back
    to the acceptance scenario's defaults (two regions, 4 clients each,
    Poisson arrivals, collaboration on); the figure runners only leave the
    paper's setting when a flag is given explicitly.  ``region_specs`` are the
    already parsed/validated ``--region`` values.
    """
    regions = None
    if args.regions:
        regions = tuple(name.strip() for name in args.regions.split(",") if name.strip())
    if for_multiregion:
        return EngineOptions(
            regions=None if region_specs else (regions or EVALUATION_REGIONS),
            clients_per_region=args.clients_per_region or 4,
            arrival_rate_rps=args.arrival_rate or DEFAULT_ARRIVAL_RATE_RPS,
            collaboration=True if args.collaboration is None else args.collaboration,
            region_specs=region_specs,
        )
    options = EngineOptions(
        regions=regions,
        clients_per_region=args.clients_per_region or 1,
        arrival_rate_rps=args.arrival_rate,
        collaboration=bool(args.collaboration),
        region_specs=region_specs,
    )
    return options if options.active else None


def _run_one(name: str, settings: ExperimentSettings, out,
             engine: EngineOptions | None = None,
             extra: dict | None = None) -> None:
    extra = extra or {}
    if name == "table1":
        print(render_table1(run_table1()).render(), file=out)
    elif name == "fig2":
        print(render_fig2(run_fig2(settings)).render(), file=out)
    elif name in ("fig6", "fig7"):
        rows = run_policy_comparison(settings, engine=engine)
        if name == "fig6":
            print(render_fig6(rows).render(), file=out)
            for region in sorted({row.region for row in rows}):
                summary = agar_advantage(rows, region)
                if not summary:
                    continue
                print(
                    f"{region}: Agar {summary['vs_best_pct']:.1f}% lower latency than the best "
                    f"static policy ({summary['best_other']}), {summary['vs_worst_pct']:.1f}% lower "
                    f"than the worst ({summary['worst_other']})",
                    file=out,
                )
        else:
            print(render_fig7(rows).render(), file=out)
    elif name == "fig8a":
        points = run_fig8a(settings, engine=engine)
        print(render_sweep(points, "Figure 8a — average latency (ms) vs cache size").render(), file=out)
        for group, lead in sorted(agar_lead_by_group(points).items()):
            print(f"{group}: Agar {lead:+.1f}% vs best static policy", file=out)
    elif name == "fig8b":
        points = run_fig8b(settings, engine=engine)
        print(render_sweep(points, "Figure 8b — average latency (ms) vs workload").render(), file=out)
        for group, lead in sorted(agar_lead_by_group(points).items()):
            print(f"{group}: Agar {lead:+.1f}% vs best static policy", file=out)
    elif name == "fig9":
        print(render_fig9(run_fig9(settings)).render(), file=out)
    elif name == "fig10":
        print(render_fig10(run_fig10(settings)).render(), file=out)
    elif name == "fig_collab":
        result = run_fig_collab(
            settings,
            options=engine,
            neighbor_read_ms_values=extra.get("neighbor_read_ms"),
            periods=extra.get("collab_periods"),
            sharded=bool(extra.get("sharded")),
        )
        print(render_fig_collab(result), file=out)
    elif name == "fig_failures":
        result = run_fig_failures(
            settings,
            options=engine,
            outage_fractions=extra.get("outage_fractions"),
            fault_region=extra.get("fault_region") or "sao_paulo",
            sharded=bool(extra.get("sharded")),
        )
        print(render_fig_failures(result), file=out)
    elif name == "multiregion":
        rows = run_multiregion_scaling(settings, options=engine)
        print(render_multiregion(rows, options=engine).render(), file=out)
    elif name == "fig_chaos":
        chaos_options = FigChaosOptions()
        if extra.get("chaos_regions"):
            chaos_options = FigChaosOptions(regions=extra["chaos_regions"])
        chaos_results = run_fig_chaos(settings, chaos_options)
        print(render_fig_chaos(chaos_results).render(), file=out)
        for variant in chaos_results:
            if not variant.recoveries:
                continue
            print(f"{variant.name}: {len(variant.recoveries)} recoveries, "
                  f"mean {variant.mean_recovery_ms:.1f} ms, "
                  f"{variant.mean_restored_fraction * 100.0:.0f}% of "
                  f"pre-crash cache restored", file=out)
    elif name == "serve":
        serve_options = ServeWireOptions(
            regions=tuple(extra.get("serve_regions") or ("frankfurt",)),
            rate_rps=extra.get("serve_rate_rps"),
        )
        results = run_serve_wire(settings, serve_options)
        print(render_serve_wire(results).render(), file=out)
        for region, result in results.items():
            print(f"{region}: {result.throughput_rps:.0f} req/s measured over "
                  f"{result.requests} wire requests ({result.errors} errors)",
                  file=out)
    elif name == "microbench":
        result = run_microbench(settings)
        print(
            f"request processing: {result.request_processing_ms:.3f} ms/request "
            f"(paper: ~0.5 ms)\n"
            f"reconfiguration:    {result.reconfiguration_ms:.1f} ms for a "
            f"{result.cache_capacity_mb:.0f} MB cache, {result.candidate_keys} candidate objects "
            f"(paper: ~5 ms)",
            file=out,
        )
        for row in run_capacity_scaling(settings):
            print(f"  cache {row.cache_capacity_mb:5.0f} MB -> reconfiguration {row.reconfiguration_ms:8.1f} ms", file=out)
    else:
        raise ValueError(f"unknown experiment {name!r}")


def main(argv: list[str] | None = None, out=sys.stdout) -> int:
    """CLI entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(
        prog="agar-experiments",
        description="Regenerate the tables and figures of the Agar paper (ICDCS 2017).",
    )
    parser.add_argument("experiment", choices=(*EXPERIMENTS, "all"),
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
    if args.arrival_rate is not None and args.arrival_rate <= 0:
        parser.error("--arrival-rate must be positive")
    if args.region and args.regions:
        parser.error("--region and --regions are mutually exclusive")
    if args.quick and args.smoke:
        parser.error("--quick and --smoke are mutually exclusive")
    if args.experiment != "all":
        # Naming one experiment and handing it a flag it would ignore is a
        # usage error, not a silent one-client run.  (`all` passes each flag
        # on to the experiments that understand it.)
        for flag, value, also in (
                ("--regions", args.regions, ("fig_chaos", "serve")),
                ("--region", args.region, ()),
                ("--clients-per-region", args.clients_per_region, ()),
                ("--arrival-rate", args.arrival_rate, ("serve",)),
                ("--collaboration/--no-collaboration", args.collaboration, ())):
            accepted = (*ENGINE_EXPERIMENTS, *also)
            if value is not None and args.experiment not in accepted:
                parser.error(f"{flag} does not apply to {args.experiment} "
                             f"(only to {', '.join(accepted)})")
    fig_collab_selected = args.experiment in ("fig_collab", "all")
    fig_failures_selected = args.experiment in ("fig_failures", "all")
    if not fig_collab_selected:
        for flag, value in (("--neighbor-read-ms", args.neighbor_read_ms),
                            ("--collab-period", args.collab_period)):
            if value is not None:
                parser.error(f"{flag} only applies to fig_collab")
    if not fig_failures_selected:
        for flag, value in (("--outage-fraction", args.outage_fraction),
                            ("--fault-region", args.fault_region)):
            if value is not None:
                parser.error(f"{flag} only applies to fig_failures")
    if args.sharded and not (fig_collab_selected or fig_failures_selected):
        parser.error("--sharded only applies to fig_collab/fig_failures")
    if args.experiment == "fig_collab":
        if args.region:
            parser.error("fig_collab sweeps fixed-strategy (agar) pairings; "
                         "use --regions to override the pairing")
        if args.regions and len([r for r in args.regions.split(",") if r.strip()]) < 2:
            parser.error("fig_collab needs at least two regions in --regions "
                         "(a pairing)")
        if args.collaboration is not None:
            parser.error("fig_collab compares collaboration against "
                         "independent caches itself; --collaboration/"
                         "--no-collaboration does not apply")
    if args.experiment == "fig_failures":
        if args.region:
            parser.error("fig_failures sweeps the strategy itself; use "
                         "--regions to override the client regions")
        if args.collaboration is not None:
            parser.error("fig_failures sweeps collaboration on/off itself; "
                         "--collaboration/--no-collaboration does not apply")
    collab_extra: dict = {}
    failures_extra: dict = {}
    try:
        if args.neighbor_read_ms:
            collab_extra["neighbor_read_ms"] = _parse_float_list(
                args.neighbor_read_ms, "--neighbor-read-ms")
        if args.collab_period:
            collab_extra["collab_periods"] = _parse_float_list(
                args.collab_period, "--collab-period")
        if args.outage_fraction:
            fractions = _parse_float_list(args.outage_fraction, "--outage-fraction")
            if any(fraction >= 1.0 for fraction in fractions):
                raise ValueError("--outage-fraction values must be below 1")
            failures_extra["outage_fractions"] = fractions
    except ValueError as error:
        parser.error(str(error))
    if args.fault_region:
        failures_extra["fault_region"] = args.fault_region
    collab_extra["sharded"] = args.sharded
    failures_extra["sharded"] = args.sharded
    region_specs = None
    if args.region:
        try:
            region_specs = tuple(RegionSpecOption.parse(text) for text in args.region)
        except ValueError as error:
            parser.error(str(error))
    settings = _settings(args)

    names = EXPERIMENTS if args.experiment == "all" else (args.experiment,)
    if region_specs:
        # Fig. 8 sweeps strategies (8a additionally sweeps the cache size),
        # so heterogeneous overrides that fight the sweep are rejected up
        # front with a usage error instead of a runner traceback.
        if any(name in ("fig8a", "fig8b") for name in names) and \
                any(spec.strategy is not None for spec in region_specs):
            parser.error("--region with a pinned strategy is not valid for "
                         "fig8a/fig8b (strategy sweeps); use fig6 or multiregion")
        if "fig8a" in names and \
                any(spec.cache_capacity_bytes is not None for spec in region_specs):
            parser.error("--region with a cache size is not valid for fig8a "
                         "(it sweeps the cache size)")
        if args.collaboration and any(name in ("fig6", "fig7") for name in names):
            pinned_count = sum(spec.strategy is not None for spec in region_specs)
            if 0 < pinned_count < len(region_specs):
                parser.error("--collaboration with partially pinned --region "
                             "strategies is ambiguous for fig6/fig7; pin every "
                             "region or drop --collaboration")
    for name in names:
        engine = (_engine_options(args, for_multiregion=(name == "multiregion"),
                                  region_specs=region_specs)
                  if name in ENGINE_EXPERIMENTS else None)
        print(f"=== {name} ===", file=out)
        extra = None
        if name == "fig_collab":
            extra = collab_extra
        elif name == "fig_failures":
            extra = failures_extra
        elif name == "fig_chaos":
            extra = {}
            if args.regions:
                parts = tuple(part.strip()
                              for part in args.regions.split(",")
                              if part.strip())
                if len(parts) != 2:
                    parser.error("fig_chaos drives a 2-region cluster; pass "
                                 "exactly two regions in --regions")
                extra["chaos_regions"] = parts
        elif name == "serve":
            extra = {}
            if args.regions:
                extra["serve_regions"] = tuple(
                    part.strip() for part in args.regions.split(",")
                    if part.strip())
            if args.arrival_rate:
                extra["serve_rate_rps"] = args.arrival_rate
        _run_one(name, settings, out, engine=engine, extra=extra)
        print(file=out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
