"""CLI features added by the facade rework (--strategy, --json, strategies)."""

import json

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.core.registry import DENSE_MAX_ORDER
from repro.synth import random_macromodel
from repro.touchstone import write_touchstone


@pytest.fixture(scope="module")
def violating_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("api_cli") / "device.s2p"
    model = random_macromodel(10, 2, seed=33, sigma_target=1.04)
    freqs = np.linspace(0.05, 14.0, 250)
    write_touchstone(path, freqs / (2 * np.pi), model.frequency_response(freqs))
    return str(path)


class TestStrategyFlag:
    def test_default_auto(self):
        args = build_parser().parse_args(["check", "x.s2p"])
        assert args.strategy == "auto"

    def test_registered_choices_accepted(self):
        args = build_parser().parse_args(["check", "x.s2p", "--strategy", "static"])
        assert args.strategy == "static"

    def test_unknown_strategy_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["check", "x.s2p", "--strategy", "bogus"])

    def test_check_with_explicit_strategy(self, violating_file, capsys):
        code = main(
            [
                "check",
                violating_file,
                "--poles",
                "10",
                "--threads",
                "2",
                "--strategy",
                "static",
            ]
        )
        assert code == 2
        assert "NOT passive" in capsys.readouterr().out


class TestJsonFlag:
    def test_check_json_payload(self, violating_file, capsys):
        code = main(["check", violating_file, "--poles", "10", "--json"])
        assert code == 2
        out = capsys.readouterr().out
        payload = json.loads(out[out.index("{"):])
        assert payload["is_passive"] is False
        assert payload["passivity"]["bands"]
        assert payload["config"]["strategy"] == "auto"


class TestRepresentationHandling:
    @pytest.fixture(scope="class")
    def admittance_file(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("api_cli_y") / "device.y2p"
        model = random_macromodel(8, 2, seed=11, sigma_target=0.5)
        shifted = model.with_d(model.d + 2.0 * np.eye(2))
        freqs = np.linspace(0.05, 14.0, 200)
        write_touchstone(
            path,
            freqs / (2 * np.pi),
            shifted.frequency_response(freqs),
            parameter="Y",
        )
        return str(path)

    def test_check_runs_immittance_test_on_y_file(self, admittance_file, capsys):
        code = main(["check", admittance_file, "--poles", "8"])
        assert code == 0
        assert "H + H^H" in capsys.readouterr().out

    def test_enforce_fails_fast_on_y_file(self, admittance_file, capsys):
        code = main(
            ["enforce", admittance_file, "--poles", "8", "--out", "/tmp/x.s2p"]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "--representation scattering" in err
        # Fail-fast: the fit line must not have been printed.
        assert "fit:" not in capsys.readouterr().out

    def test_representation_flag_overrides_file_type(self, violating_file, capsys):
        code = main(
            [
                "check",
                violating_file,
                "--poles",
                "10",
                "--representation",
                "scattering",
                "--json",
            ]
        )
        assert code == 2
        out = capsys.readouterr().out
        payload = json.loads(out[out.index("{"):])
        assert payload["config"]["representation"] == "scattering"


class TestStrategiesCommand:
    def test_lists_builtins(self, capsys):
        assert main(["strategies"]) == 0
        out = capsys.readouterr().out
        for name in ("bisection", "dense", "queue", "static", "auto"):
            assert name in out
        assert f"dense below order {DENSE_MAX_ORDER}" in out
        assert "scattering" in out


class TestEnvOverride:
    def test_env_threads_picked_up(self, violating_file, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_NUM_THREADS", "2")
        code = main(["check", violating_file, "--poles", "10", "--json"])
        assert code == 2
        out = capsys.readouterr().out
        payload = json.loads(out[out.index("{"):])
        assert payload["config"]["num_threads"] == 2

    def test_explicit_flag_beats_env(self, violating_file, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_NUM_THREADS", "4")
        code = main(
            ["check", violating_file, "--poles", "10", "--threads", "2", "--json"]
        )
        assert code == 2
        out = capsys.readouterr().out
        payload = json.loads(out[out.index("{"):])
        assert payload["config"]["num_threads"] == 2

    def test_explicit_default_value_beats_env(
        self, violating_file, capsys, monkeypatch
    ):
        # --threads 1 equals the parser default but was typed explicitly,
        # so it must force a serial run despite REPRO_NUM_THREADS.
        monkeypatch.setenv("REPRO_NUM_THREADS", "4")
        code = main(
            ["check", violating_file, "--poles", "10", "--threads", "1", "--json"]
        )
        assert code == 2
        out = capsys.readouterr().out
        payload = json.loads(out[out.index("{"):])
        assert payload["config"]["num_threads"] == 1
