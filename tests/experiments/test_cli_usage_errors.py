"""Every argument rule of the experiments CLI is a usage error.

One argv per rule: each must exit 2 (argparse's usage-error code) before any
experiment runs, so nothing reaches ``out``.  A rule that let the command
run, or raised from inside a runner, would print a header or a traceback
instead.
"""

import io

import pytest

from repro.experiments.cli import main

USAGE_ERRORS = (
    "fig6 --clients-per-region 0",
    "fig6 --arrival-rate -1",
    "multiregion --region frankfurt --regions sydney",
    "fig6 --quick",  # with the --smoke every case adds
    "fig2 --clients-per-region 4",
    "table1 --neighbor-read-ms 10",
    "fig6 --outage-fraction 0.3",
    "fig6 --sharded",
    "fig_collab --region frankfurt",
    "fig_collab --regions frankfurt",
    "fig_collab --collaboration",
    "fig_failures --region frankfurt",
    "fig_failures --collaboration",
    "fig_collab --neighbor-read-ms ten",
    "multiregion --region frankfurt:bogus",
    "fig8b --region frankfurt:lfu-5",
    "fig8a --region frankfurt::64MB",
    "fig6 --collaboration --region frankfurt:agar --region sydney",
    "fig_chaos --regions frankfurt",
    # Region names are checked against the topology once, for every flag.
    "fig6 --regions atlantis",
    "serve --regions atlantis",
    "fig6 --region atlantis:agar",
    "fig_failures --fault-region atlantis",
    "fig_failures --fault-region frankfurt",
    "fig_collab --regions frankfurt,frankfurt",
    "fig6 --region frankfurt --region frankfurt",
    "multiregion --regions ,",
    # Sweep values must be finite.
    "fig_collab --neighbor-read-ms nan",
    "fig_collab --collab-period inf",
    "fig_failures --outage-fraction nan",
)


@pytest.mark.parametrize("argv", USAGE_ERRORS)
def test_usage_error_exits_2_and_prints_nothing(argv):
    out = io.StringIO()
    with pytest.raises(SystemExit) as error:
        main([*argv.split(), "--smoke"], out=out)
    assert error.value.code == 2
    assert out.getvalue() == ""


@pytest.mark.parametrize("rate", ["nan", "inf"])
def test_non_finite_arrival_rate_is_a_usage_error(rate, monkeypatch):
    """A NaN rate passed ``rate <= 0`` and the run never ended; the settings
    are built only after every check passed, so failing there keeps a bad
    rate from ever running."""
    from repro.experiments import cli

    monkeypatch.setattr(cli, "_settings",
                        lambda args: pytest.fail(f"--arrival-rate {rate} was accepted"))
    for experiment in ("fig6", "serve"):
        with pytest.raises(SystemExit) as error:
            main([experiment, "--arrival-rate", rate], out=io.StringIO())
        assert error.value.code == 2


@pytest.mark.parametrize("rate", [float("nan"), float("inf")])
def test_engine_options_reject_non_finite_rates(rate):
    from repro.experiments.common import EngineOptions

    with pytest.raises(ValueError, match="finite"):
        EngineOptions(arrival_rate_rps=rate)
