"""Every option of the serving tier and of the experiments is set by some caller.

A defaulted field that no caller sets to anything but its default is a
constant dressed as an option: it widens the API, and the code that only a
different value would reach goes untested.  This scan reads every call in
``src/``, ``tests/``, ``examples/`` and ``benchmarks/`` that constructs one
of the serving tier's option objects, the experiments' settings and engine
options or the engine's own configuration, or that calls an experiment entry
point, and fails on a defaulted field or keyword that no call passes a
non-default value.  The keywords of ``ExperimentSettings.deployment(...)``,
which passes them on to :class:`EngineConfig`, count as ``EngineConfig``
options.  A
literal equal to the default counts as unset; any other expression counts
as set; positional arguments count.  A field that must stay an option
although nothing in the repository varies it goes in ``ALLOWED`` with its
reason.
"""

import ast
import dataclasses
import inspect
import pathlib

from repro.experiments.ablation import run_agar_variants, run_solver_quality, synthetic_options
from repro.experiments.common import EngineOptions, ExperimentSettings, RegionSpecOption
from repro.experiments.fig2_motivating import run_fig2
from repro.experiments.fig6_policies import run_policy_comparison
from repro.experiments.fig8_sweeps import run_fig8a, run_fig8b
from repro.experiments.fig9_popularity import run_fig9
from repro.experiments.fig10_cache_contents import run_fig10
from repro.experiments.fig_chaos import run_fig_chaos
from repro.experiments.fig_collab import run_fig_collab
from repro.experiments.fig_failures import run_fig_failures
from repro.experiments.microbench import run_capacity_scaling, run_microbench
from repro.experiments.multiregion import run_multiregion_scaling
from repro.experiments.serve_wire import run_serve_wire
from repro.experiments.table1_latency import run_table1, run_table1_calibrated
from repro.serve.chaos import ChaosSchedule
from repro.serve.gateway import GatewaySettings
from repro.serve.loadgen import WireLoadSpec, WireResilience
from repro.serve.supervisor import SupervisorConfig
from repro.sim.engine import EngineConfig, RegionSpec

ROOT = pathlib.Path(__file__).resolve().parents[2]
SCANNED = ("src", "tests", "examples", "benchmarks")
TARGETS = (GatewaySettings, SupervisorConfig, WireResilience, WireLoadSpec,
           ChaosSchedule, run_serve_wire, run_fig_chaos,
           ExperimentSettings, EngineOptions, RegionSpecOption,
           run_table1, run_table1_calibrated, run_fig2, run_policy_comparison,
           run_fig8a, run_fig8b, run_fig9, run_fig10, run_fig_collab,
           run_fig_failures, run_microbench, run_capacity_scaling,
           run_multiregion_scaling, run_agar_variants, run_solver_quality,
           synthetic_options, EngineConfig, RegionSpec)

#: Calls whose keywords are another target's options: the method passes them
#: through ``**fields``, where the scan cannot follow them.
KEYWORDS_OF = {"deployment": EngineConfig}

#: ``(target, option)`` pairs that stay options with nothing setting them.
ALLOWED = {
    # An address: the loopback default is what every in-repo cluster binds,
    # a deployment elsewhere binds its own.
    ("GatewaySettings", "host"),
}


def parameters(target) -> tuple[list[str], dict[str, object]]:
    """The names ``target`` takes, in positional order, and the defaults of
    those that have one (``default_factory`` defaults are called)."""
    if dataclasses.is_dataclass(target):
        names, defaults = [], {}
        for field in dataclasses.fields(target):
            if not field.init:
                continue
            names.append(field.name)
            if field.default is not dataclasses.MISSING:
                defaults[field.name] = field.default
            elif field.default_factory is not dataclasses.MISSING:
                defaults[field.name] = field.default_factory()
        return names, defaults
    signature = inspect.signature(target).parameters.values()
    return ([parameter.name for parameter in signature],
            {parameter.name: parameter.default for parameter in signature
             if parameter.default is not inspect.Parameter.empty})


def _is_set(node: ast.expr, default: object) -> bool:
    try:
        value = ast.literal_eval(node)
    except ValueError:
        return True
    return value != default


def options_set(source: str, targets=TARGETS) -> dict[str, set[str]]:
    """Per target name, the defaulted options some call in ``source`` sets
    to a value other than their default."""
    shapes = {target.__name__: parameters(target) for target in targets}
    found: dict[str, set[str]] = {name: set() for name in shapes}
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = (func.id if isinstance(func, ast.Name)
                else func.attr if isinstance(func, ast.Attribute) else None)
        forwarded = name in KEYWORDS_OF
        if forwarded:
            name = KEYWORDS_OF[name].__name__
        if name not in shapes:
            continue
        names, defaults = shapes[name]
        passed = [] if forwarded else [
            (names[index], arg) for index, arg in enumerate(node.args)
            if index < len(names) and not isinstance(arg, ast.Starred)]
        passed += [(keyword.arg, keyword.value) for keyword in node.keywords
                   if keyword.arg is not None]
        found[name] |= {option for option, value in passed
                        if option in defaults
                        and _is_set(value, defaults[option])}
    return found


def scan() -> dict[str, set[str]]:
    found: dict[str, set[str]] = {target.__name__: set()
                                  for target in TARGETS}
    for directory in SCANNED:
        for path in sorted((ROOT / directory).rglob("*.py")):
            for name, options in options_set(path.read_text()).items():
                found[name] |= options
    return found


def unset_options() -> list[tuple[str, str]]:
    found = scan()
    return sorted((target.__name__, option)
                  for target in TARGETS
                  for option in parameters(target)[1]
                  if option not in found[target.__name__])


def test_every_option_is_set_somewhere():
    assert [pair for pair in unset_options() if pair not in ALLOWED] == []


def test_every_allowed_option_is_still_unset():
    assert ALLOWED <= set(unset_options())


def test_the_scan_reads_literals_keywords_and_positions():
    source = """
WireResilience(250.0, backoff_cap_ms=25.0)
WireResilience(base_timeout_ms=limit)
SupervisorConfig(0.03, warm_recovery=True)
repro.serve.supervisor.SupervisorConfig(*args, **kwargs)
"""
    assert options_set(source, (WireResilience, SupervisorConfig)) == {
        "WireResilience": {"base_timeout_ms", "backoff_cap_ms"},
        "SupervisorConfig": set(),
    }


def test_deployment_keywords_count_as_engine_options():
    source = """
settings.deployment(regions, neighbor_read_ms=value, topology_seed=0)
settings.deployment((RegionSpec("frankfurt", clients=2),), True)
"""
    assert options_set(source, (EngineConfig, RegionSpec)) == {
        "EngineConfig": {"neighbor_read_ms"},
        "RegionSpec": {"clients"},
    }
