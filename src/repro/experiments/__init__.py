"""Experiment drivers: one module per table/figure of the paper's evaluation.

The index is ``repro.experiments.cli.EXPERIMENTS``: one entry per
``agar-experiments`` subcommand, naming its runner and its report.
"""
