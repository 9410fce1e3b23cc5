"""run_matrix: seed threading, a failing job, the worker count."""

import dataclasses
import os

import pytest

from repro.common.errors import CampaignError, ConfigError
from repro.common.params import FenceDesign
from repro.eval import figures
from repro.eval.runner import run_matrix
from repro.farm.campaign import default_farm_workers

GRID = dict(num_cores=2, scale=0.06, farm_workers=0)


def test_seed_lands_in_run_summary():
    runs = run_matrix(["fib"], [FenceDesign.S_PLUS], seed=777, **GRID)
    (summary,) = runs.values()
    assert summary.seed == 777


def test_same_seed_reproduces_identical_summaries():
    a = run_matrix(["fib"], [FenceDesign.S_PLUS, FenceDesign.W_PLUS],
                   seed=42, **GRID)
    b = run_matrix(["fib"], [FenceDesign.S_PLUS, FenceDesign.W_PLUS],
                   seed=42, **GRID)
    assert a.keys() == b.keys()
    for key in a:
        # full field-by-field equality, stats dicts included
        assert dataclasses.asdict(a[key]) == dataclasses.asdict(b[key])


def test_figure_rows_carry_the_seed(monkeypatch):
    monkeypatch.setenv("REPRO_FARM_WORKERS", "0")
    data = figures.fig8_cilkapps(scale=0.06, num_cores=2, seed=31,
                                 apps=("fib",))
    assert data["seed"] == 31


def test_parallel_results_identical_to_serial():
    kwargs = dict(names=["fib"], designs=[FenceDesign.S_PLUS,
                                          FenceDesign.WS_PLUS],
                  seed=5, num_cores=2, scale=0.06)
    serial = run_matrix(farm_workers=0, **kwargs)
    parallel = run_matrix(farm_workers=2, **kwargs)
    assert serial.keys() == parallel.keys()
    for key in serial:
        assert (dataclasses.asdict(serial[key])
                == dataclasses.asdict(parallel[key]))


def test_failing_job_surfaces_from_the_pool():
    """A job that raises stops the campaign and names its error (an
    unhealthy campaign, exit 1); it must not hang the pool."""
    with pytest.raises(CampaignError,
                       match="KeyError: 'no-such-workload'"):
        run_matrix(["no-such-workload", "fib"], [FenceDesign.S_PLUS],
                   num_cores=2, scale=0.06, farm_workers=2)


class TestDefaultFarmWorkers:
    def test_explicit_env_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_FARM_WORKERS", "3")
        assert default_farm_workers() == 3

    def test_zero_means_inline(self, monkeypatch):
        monkeypatch.setenv("REPRO_FARM_WORKERS", "0")
        assert default_farm_workers() == 0

    @pytest.mark.parametrize("value", ["two", "not-a-number", "-1", "1.5"])
    def test_malformed_or_negative_is_a_config_error(self, monkeypatch,
                                                     value):
        monkeypatch.setenv("REPRO_FARM_WORKERS", value)
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        with pytest.raises(ConfigError,
                           match=f"REPRO_FARM_WORKERS='{value}'"):
            default_farm_workers()

    def test_cli_reports_a_malformed_value_as_a_usage_error(
            self, monkeypatch, tmp_path, capsys):
        import tempfile

        from repro.cli import main

        monkeypatch.setenv("REPRO_FARM_WORKERS", "two")
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        assert main(["figure", "12", "--scale", "0.05"]) == 2
        assert "REPRO_FARM_WORKERS='two'" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []  # no store was made

    @pytest.mark.parametrize("cpus,workers", [(None, 0), (2, 0), (3, 2),
                                              (4, 3), (64, 8)])
    def test_unset_uses_cpu_formula_capped_at_eight(
            self, monkeypatch, cpus, workers):
        monkeypatch.delenv("REPRO_FARM_WORKERS", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        assert default_farm_workers() == workers
