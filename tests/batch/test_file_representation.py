"""Fleet and service Touchstone jobs take the representation of their file.

Through ``repro batch`` and ``repro serve``, a Y- or Z-parameter file runs
the immittance test unless a flag, ``REPRO_REPRESENTATION`` or the job
spec's ``config`` names another one, as ``repro check`` layers its config.
A library caller's explicit config wins, with a warning, as in
``Macromodel.from_touchstone``; without one, each file picks.
"""

import json
import warnings

import numpy as np
import pytest

from repro.api import Macromodel
from repro.batch import BatchRunner
from repro.cli import main
from repro.core.config import RunConfig
from repro.queue import parse_spec
from repro.service import JobManager
from repro.synth import random_macromodel
from repro.touchstone import write_touchstone
from repro.touchstone.reader import read_parameter


@pytest.fixture(scope="module")
def y_file(tmp_path_factory):
    """A passive admittance model whose D + 2I fails the scattering test."""
    model = random_macromodel(8, 2, seed=11, sigma_target=0.5)
    model = model.with_d(model.d + 2.0 * np.eye(2))
    freqs = np.linspace(0.05, 14.0, 200)
    path = tmp_path_factory.mktemp("immittance") / "device.y2p"
    write_touchstone(
        path, freqs / (2 * np.pi), model.frequency_response(freqs), parameter="Y"
    )
    return str(path)


def _run_parsed(parsed):
    runner = BatchRunner(backend="serial", **parsed.runner_kwargs())
    return runner.run([parsed.job]).results[0]


def test_read_parameter_reads_the_option_line(y_file, tmp_path):
    assert read_parameter(y_file) == "Y"
    bare = tmp_path / "bare.s1p"
    bare.write_text("! no option line\n1.0 0.5 0.0\n")
    assert read_parameter(bare) == "S"


class TestService:
    def test_y_file_job_runs_the_immittance_test(self, y_file):
        spec = {"kind": "touchstone", "path": y_file, "task": "check", "num_poles": 8}
        parsed = parse_spec(
            spec, base_config=RunConfig(cache="off"), file_representation=True
        )
        assert parsed.config.representation == "immittance"
        assert parsed.resolved_spec()["config"]["representation"] == "immittance"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = _run_parsed(parsed)
        assert result.status == "ok", result.error
        assert result.session["passivity"]["representation"] == "immittance"
        assert result.is_passive

    def test_worker_reparse_keeps_the_resolved_representation(self, y_file):
        spec = {"kind": "touchstone", "path": y_file, "task": "check", "num_poles": 8}
        first = parse_spec(spec)
        again = parse_spec(first.resolved_spec())
        assert again.config == first.config
        assert again.key == first.key

    def test_spec_config_names_the_representation(self, y_file):
        spec = {
            "kind": "touchstone", "path": y_file, "task": "check", "num_poles": 8,
            "config": {"representation": "scattering"},
        }
        parsed = parse_spec(spec)
        assert parsed.config.representation == "scattering"
        with pytest.warns(UserWarning, match="holds Y-parameters"):
            result = _run_parsed(parsed)
        assert result.status == "error"
        assert "sigma(D) < 1 required" in result.error

    def test_without_a_base_config_the_file_picks(self, y_file):
        spec = {"kind": "touchstone", "path": y_file, "task": "check"}
        assert parse_spec(spec).config.representation == "immittance"

    def test_an_explicit_base_config_wins(self, y_file):
        spec = {"kind": "touchstone", "path": y_file, "task": "check"}
        parsed = parse_spec(spec, base_config=RunConfig())
        assert parsed.config.representation == "scattering"

    @pytest.mark.parametrize(
        "config, file_representation, expected",
        [
            (RunConfig(cache="off"), True, "immittance"),
            (RunConfig(cache="off"), False, "scattering"),
            (None, False, "immittance"),
        ],
    )
    def test_manager_queues_the_resolved_representation(
        self, y_file, tmp_path, config, file_representation, expected
    ):
        manager = JobManager(
            config=config,
            file_representation=file_representation,
            workers=0,
            queue_path=str(tmp_path / "q.sqlite3"),
        )
        try:
            row = manager.submit(
                {"kind": "touchstone", "path": y_file, "task": "check"}
            )
            assert row.spec["config"]["representation"] == expected
        finally:
            manager.shutdown()

    def test_serve_lets_files_pick_unless_named(self, tmp_path, capsys):
        argv = ["serve", "--print-config", "--port", "0", "--workers", "0",
                "--queue", str(tmp_path / "q.sqlite3")]
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["file_representation"]
        assert main(argv + ["--representation", "scattering"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["file_representation"] is False
        assert payload["config"]["representation"] == "scattering"

    def test_the_file_changes_the_job_key(self, y_file):
        spec = {"kind": "touchstone", "path": y_file, "task": "check"}
        scattering = dict(spec, config={"representation": "scattering"})
        assert parse_spec(spec).key != parse_spec(scattering).key


class TestBatch:
    def test_process_fleet_runs_the_immittance_test(self, y_file, capsys):
        code = main(
            ["batch", y_file, "--backend", "process", "--workers", "1",
             "--poles", "8", "--json"]
        )
        out = capsys.readouterr().out
        report = json.loads(out[out.index("{"):])
        (result,) = report["results"]
        assert code == 0, result.get("error")
        assert result["status"] == "ok"
        assert result["session"]["passivity"]["representation"] == "immittance"

    def test_representation_flag_wins(self, y_file, capsys):
        code = main(
            ["batch", y_file, "--backend", "serial", "--poles", "8",
             "--representation", "scattering", "--json"]
        )
        out = capsys.readouterr().out
        (result,) = json.loads(out[out.index("{"):])["results"]
        assert code == 4
        assert "sigma(D) < 1 required" in result["error"]

    def test_environment_names_the_representation(self, y_file, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_REPRESENTATION", "scattering")
        code = main(["batch", y_file, "--backend", "serial", "--poles", "8"])
        capsys.readouterr()
        assert code == 4

    def test_an_explicit_runner_config_wins(self, y_file):
        runner = BatchRunner(config=RunConfig(), backend="serial", num_poles=8)
        with pytest.warns(UserWarning, match="holds Y-parameters"):
            (result,) = runner.run([y_file]).results
        assert result.status == "error"

    def test_runner_file_representation_lets_the_file_pick(self, y_file):
        runner = BatchRunner(
            config=RunConfig(), file_representation=True,
            backend="serial", num_poles=8,
        )
        (result,) = runner.run([y_file]).results
        assert result.status == "ok", result.error
        assert result.session["passivity"]["representation"] == "immittance"


class TestMap:
    def test_an_explicit_config_wins_with_a_warning(self, y_file):
        with pytest.warns(UserWarning, match="holds Y-parameters"):
            report = Macromodel.map(
                [y_file], config=RunConfig(), backend="serial", num_poles=8
            )
        (result,) = report.results
        assert result.status == "error"
        assert "sigma(D) < 1 required" in result.error

    def test_without_a_config_the_file_picks(self, y_file):
        (result,) = Macromodel.map([y_file], backend="serial", num_poles=8).results
        assert result.status == "ok", result.error
        assert result.session["passivity"]["representation"] == "immittance"
