"""End-to-end tests of the Macromodel session facade."""

import json

import numpy as np
import pytest

from repro.api import Macromodel, RunConfig
from repro.synth import random_macromodel
from repro.touchstone import read_touchstone, write_touchstone


@pytest.fixture(scope="module")
def device():
    """A mildly non-passive 2-port 'measured device'."""
    return random_macromodel(10, 2, seed=33, sigma_target=1.04)


@pytest.fixture(scope="module")
def device_file(device, tmp_path_factory):
    path = tmp_path_factory.mktemp("api") / "device.s2p"
    freqs = np.linspace(0.05, 14.0, 250)
    write_touchstone(path, freqs / (2 * np.pi), device.frequency_response(freqs))
    return str(path)


class TestConstructors:
    def test_from_touchstone(self, device_file):
        session = Macromodel.from_touchstone(device_file)
        assert session.data is not None
        assert session.data.num_ports == 2
        assert session.model is None

    def test_from_pole_residue(self, device):
        session = Macromodel.from_pole_residue(device)
        assert session.model is device

    def test_from_pole_residue_type_checked(self):
        with pytest.raises(TypeError):
            Macromodel.from_pole_residue(np.eye(3))

    def test_from_touchstone_y_parameters_default_to_immittance(
        self, tmp_path
    ):
        model = random_macromodel(8, 2, seed=11, sigma_target=0.5)
        shifted = model.with_d(model.d + 2.0 * np.eye(2))
        freqs = np.linspace(0.05, 14.0, 200)
        path = tmp_path / "device.y2p"
        write_touchstone(
            path,
            freqs / (2 * np.pi),
            shifted.frequency_response(freqs),
            parameter="Y",
        )
        session = Macromodel.from_touchstone(path)
        assert session.config.representation == "immittance"
        session.fit(num_poles=8).check_passivity()
        assert session.passivity_report.representation == "immittance"

    def test_export_preserves_parameter_type(self, tmp_path):
        model = random_macromodel(8, 2, seed=11, sigma_target=0.5)
        shifted = model.with_d(model.d + 2.0 * np.eye(2))
        freqs = np.linspace(0.05, 14.0, 200)
        src = tmp_path / "device.y2p"
        write_touchstone(
            src, freqs / (2 * np.pi), shifted.frequency_response(freqs),
            parameter="Y",
        )
        out = tmp_path / "out.y2p"
        Macromodel.from_touchstone(src).fit(num_poles=8).to_touchstone(out)
        assert read_touchstone(out).parameter == "Y"

    def test_from_touchstone_warns_on_representation_mismatch(
        self, device_file
    ):
        with pytest.warns(UserWarning, match="S-parameters"):
            Macromodel.from_touchstone(
                device_file, config=RunConfig(representation="immittance")
            )

    def test_from_samples(self, device):
        freqs = np.linspace(0.05, 14.0, 120)
        session = Macromodel.from_samples(freqs, device.frequency_response(freqs))
        session.fit(num_poles=10)
        assert session.fit_result.rms_error < 1e-6

    def test_from_samples_y_parameters_default_to_immittance(self, tmp_path):
        model = random_macromodel(8, 2, seed=11, sigma_target=0.5)
        shifted = model.with_d(model.d + 2.0 * np.eye(2))
        freqs = np.linspace(0.05, 14.0, 150)
        session = Macromodel.from_samples(
            freqs, shifted.frequency_response(freqs), parameter="Y"
        )
        assert session.config.representation == "immittance"
        out = tmp_path / "samples.y2p"
        session.fit(num_poles=8).to_touchstone(out)
        assert read_touchstone(out).parameter == "Y"


class TestPipeline:
    def test_fit_requires_data(self, device):
        with pytest.raises(RuntimeError, match="no sample data"):
            Macromodel.from_pole_residue(device).fit()

    def test_stage_requires_model(self, device_file):
        with pytest.raises(RuntimeError, match="no model"):
            Macromodel.from_touchstone(device_file).check_passivity()

    def test_fluent_check(self, device_file):
        session = (
            Macromodel.from_touchstone(device_file)
            .configure(num_threads=2)
            .fit(num_poles=10)
            .check_passivity()
        )
        assert session.is_passive is False
        assert session.passivity_report.bands
        assert session.report is session.passivity_report

    def test_fluent_enforce_and_export(self, device_file, tmp_path):
        out = tmp_path / "passive.s2p"
        session = (
            Macromodel.from_touchstone(device_file)
            .fit(num_poles=10)
            .check_passivity()
            .enforce()
            .to_touchstone(out)
        )
        assert session.is_passive is True
        assert session.enforcement_result.passive
        data = read_touchstone(out)
        peak = np.linalg.svd(data.matrices, compute_uv=False).max()
        assert peak < 1.0

    def test_enforce_rejects_simo(self, device):
        from repro.macromodel.realization import pole_residue_to_simo

        session = Macromodel.from_pole_residue(pole_residue_to_simo(device))
        with pytest.raises(TypeError, match="PoleResidueModel"):
            session.enforce()

    def test_hinf(self, device):
        session = Macromodel.from_pole_residue(device).hinf(rtol=1e-4)
        assert session.hinf_result.norm == pytest.approx(1.04, abs=0.01)

    def test_immittance_config_dispatches(self):
        model = random_macromodel(8, 2, seed=11, sigma_target=0.5)
        shifted = model.with_d(model.d + 2.0 * np.eye(2))
        session = Macromodel.from_pole_residue(
            shifted, config=RunConfig(representation="immittance")
        ).check_passivity()
        assert session.passivity_report.representation == "immittance"
        assert "H + H^H" in session.passivity_report.summary()
        assert isinstance(session.is_passive, bool)
        assert "passive" in session.to_dict()["passivity"]

    def test_hinf_honors_strategy_and_handles_band_limits(self, device):
        session = Macromodel.from_pole_residue(
            device, config=RunConfig(strategy="static", num_threads=2)
        ).hinf(rtol=1e-3)
        assert session.hinf_result.norm == pytest.approx(1.04, abs=0.01)
        # Session-level band limits are a characterization knob; the hinf
        # stage drops them so a band-limited pipeline still works...
        banded = Macromodel.from_pole_residue(
            device, config=RunConfig(omega_max=5.0)
        ).hinf(rtol=1e-3)
        assert banded.hinf_result.norm == pytest.approx(1.04, abs=0.01)
        # ...but asking for a band explicitly on the hinf call is an error.
        with pytest.raises(ValueError, match="omega"):
            Macromodel.from_pole_residue(device).hinf(omega_max=5.0)

    def test_enforce_drops_session_band_and_rejects_explicit_band(self, device):
        # A band-limited session still enforces over the full axis...
        session = Macromodel.from_pole_residue(
            device, config=RunConfig(omega_max=5.0)
        ).enforce()
        assert session.is_passive is True
        assert session.enforcement_result.reports[-1].solve.band[1] > 5.0
        # ...but asking for a band on the enforce call itself is an error.
        with pytest.raises(ValueError, match="band"):
            Macromodel.from_pole_residue(device).enforce(omega_max=5.0)

    def test_enforce_reuses_prior_check_report(self, device):
        session = Macromodel.from_pole_residue(device).check_passivity()
        report = session.passivity_report
        session.enforce()
        # Iteration 0 must be the very report check_passivity produced.
        assert session.enforcement_result.reports[0] is report

    def test_enforce_invalidates_stale_stage_results(self, device):
        session = (
            Macromodel.from_pole_residue(device)
            .find_crossings()
            .hinf(rtol=1e-3)
            .check_passivity()
        )
        assert session.solve_result is not None
        session.enforce()
        # The sweep/norm described the pre-enforcement model.
        assert session.solve_result is None
        assert session.hinf_result is None
        payload = session.to_dict()
        assert "solve" not in payload and "hinf" not in payload

    def test_refit_invalidates_stage_results(self, device_file):
        session = Macromodel.from_touchstone(device_file).fit(num_poles=10)
        session.check_passivity()
        session.fit(num_poles=12)
        assert session.passivity_report is None
        assert session.is_passive is None

    def test_enforce_does_not_reuse_band_limited_report(self, device):
        session = Macromodel.from_pole_residue(device)
        session.check_passivity(omega_max=5.0)
        report = session.passivity_report
        session.enforce()
        assert session.enforcement_result.reports[0] is not report

    def test_enforce_ignores_unsound_passive_seed(self, device):
        # A passive-looking report from a band that misses the violation
        # must not let enforce_passivity skip its own sweep.
        from repro.passivity.characterization import characterize_passivity
        from repro.passivity.enforcement import enforce_passivity

        blind = characterize_passivity(device, omega_max=1e-3)
        assert blind.passive  # the violation lies outside this tiny band
        result = enforce_passivity(device, initial_report=blind)
        assert result.passive
        assert result.iterations >= 1  # it ran its own full-axis sweeps
        full = characterize_passivity(result.model)
        assert full.passive

    def test_immittance_config_rejected_by_scattering_only_stages(self, device):
        session = Macromodel.from_pole_residue(
            device, config=RunConfig(representation="immittance")
        )
        with pytest.raises(ValueError, match="representation"):
            session.enforce()
        with pytest.raises(ValueError, match="representation"):
            session.hinf()
        with pytest.raises(ValueError, match="representation"):
            session.simulate()
        with pytest.raises(ValueError, match="representation"):
            session.simulate("worst-tone")

    def test_find_crossings(self, device):
        session = Macromodel.from_pole_residue(device).find_crossings(num_threads=2)
        assert session.solve_result.strategy == "queue"
        assert session.solve_result.num_crossings > 0

    def test_per_call_override_does_not_stick(self, device):
        session = Macromodel.from_pole_residue(device)
        session.check_passivity(num_threads=2)
        assert session.passivity_report.solve.num_threads == 2
        assert session.config.num_threads == 1

    def test_configure_with_config_object(self, device):
        config = RunConfig(num_threads=2, strategy="static")
        session = Macromodel.from_pole_residue(device).configure(config)
        assert session.config is config
        session.check_passivity()
        assert session.passivity_report.solve.strategy == "static"

    def test_export_without_data_uses_synthetic_grid(self, device, tmp_path):
        out = tmp_path / "model.s2p"
        Macromodel.from_pole_residue(device).check_passivity().to_touchstone(out)
        data = read_touchstone(out)
        assert data.num_ports == 2
        assert data.freqs_hz.size > 10


class TestReporting:
    def test_summary_lists_stages(self, device_file):
        session = Macromodel.from_touchstone(device_file).fit(num_poles=10)
        session.check_passivity()
        text = session.summary()
        assert "fit:" in text
        assert "passivity:" in text

    def test_repr_tracks_state(self, device):
        session = Macromodel.from_pole_residue(device)
        assert "state=new" in repr(session)
        session.check_passivity()
        assert "checked" in repr(session)

    def test_to_dict_json_serializable(self, device_file, tmp_path):
        session = (
            Macromodel.from_touchstone(device_file)
            .fit(num_poles=10)
            .check_passivity()
            .enforce()
            .hinf(rtol=1e-3)
            .to_touchstone(tmp_path / "out.s2p")
        )
        payload = session.to_dict()
        rebuilt = json.loads(json.dumps(payload))
        assert rebuilt["is_passive"] is True
        assert rebuilt["fit"]["num_poles"] == 10
        assert rebuilt["enforcement"]["passive"] is True
        assert rebuilt["hinf"]["norm"] > 0
        assert rebuilt["config"]["num_threads"] == 1
        assert rebuilt["exports"]
