"""The uniform to_dict() -> JSON contract of every result object."""

import json

import numpy as np
import pytest

from repro.core.solver import solve
from repro.passivity.characterization import characterize_passivity
from repro.passivity.enforcement import enforce_passivity
from repro.passivity.hinf import hinf_norm
from repro.synth import random_macromodel
from repro.utils.serialization import to_jsonable
from repro.vectfit.vector_fitting import vector_fit


@pytest.fixture(scope="module")
def model():
    return random_macromodel(8, 2, seed=5, sigma_target=1.03)


def round_trip(payload):
    return json.loads(json.dumps(payload))


class TestSolveResult:
    def test_to_dict_round_trips(self, model):
        result = solve(model, num_threads=2)
        payload = round_trip(result.to_dict())
        assert payload["strategy"] == "queue"
        assert payload["num_threads"] == 2
        assert payload["num_crossings"] == result.num_crossings
        assert len(payload["omegas"]) == result.omegas.size
        assert payload["shifts"], "per-shift provenance missing"
        shift = payload["shifts"][0]["result"]["shift"]
        assert set(shift) == {"re", "im"}

    def test_to_dict_compact(self, model):
        result = solve(model)
        payload = round_trip(result.to_dict(include_shifts=False))
        assert "shifts" not in payload
        assert payload["shifts_processed"] > 0


class TestPassivityReport:
    def test_to_dict_round_trips(self, model):
        report = characterize_passivity(model)
        payload = round_trip(report.to_dict())
        assert payload["passive"] is False
        assert payload["bands"]
        band = payload["bands"][0]
        assert band["peak_sigma"] > 1.0
        assert "work" in payload

    def test_include_solve(self, model):
        report = characterize_passivity(model)
        payload = round_trip(report.to_dict(include_solve=True))
        assert payload["solve"]["strategy"] == "dense"

    def test_band_limited_report_is_qualified(self, model):
        # The model's violation lies near w~0.66; sweep a band above it.
        from repro.core.config import RunConfig

        full = characterize_passivity(model)
        assert not full.passive and not full.band_limited
        lo = full.bands[0].hi * 2.0
        blind = characterize_passivity(
            model, config=RunConfig(omega_min=lo, omega_max=lo * 4.0)
        )
        assert blind.passive  # in-band statement only
        assert blind.band_limited
        assert "in band" in blind.summary()
        assert round_trip(blind.to_dict())["band_limited"] is True
        # Full-axis reports keep the unqualified certificate wording.
        assert "in band" not in full.summary()


class TestEnforcementResult:
    def test_to_dict_round_trips(self, model):
        result = enforce_passivity(model)
        payload = round_trip(result.to_dict())
        assert payload["passive"] is True
        assert payload["model"]["num_ports"] == 2
        assert len(payload["history"]) == len(result.history)
        assert payload["reports"][-1]["passive"] is True

    def test_without_model(self, model):
        result = enforce_passivity(model)
        payload = round_trip(result.to_dict(include_model=False))
        assert "model" not in payload


class TestHinfResult:
    def test_to_dict_round_trips(self, model):
        result = hinf_norm(model, rtol=1e-3)
        payload = round_trip(result.to_dict())
        assert payload["norm"] == pytest.approx(result.norm)
        assert payload["lower"] <= payload["upper"]
        assert isinstance(payload["bisections"], int)


class TestImmittanceReport:
    def test_to_dict_round_trips(self):
        model = random_macromodel(8, 2, seed=11, sigma_target=0.5)
        shifted = model.with_d(model.d + 2.0 * np.eye(2))
        report = characterize_passivity(shifted, representation="immittance")
        payload = round_trip(report.to_dict())
        assert payload["representation"] == "immittance"
        assert isinstance(payload["passive"], bool)
        assert isinstance(payload["crossings"], list)
        assert payload["band_limited"] is False

    def test_band_limited_report_is_qualified(self):
        from repro.core.config import RunConfig

        model = random_macromodel(8, 2, seed=11, sigma_target=0.5)
        shifted = model.with_d(model.d + 2.0 * np.eye(2))
        report = characterize_passivity(
            shifted, config=RunConfig(representation="immittance", omega_max=2.0)
        )
        assert report.band_limited
        assert "in band" in report.summary()
        assert round_trip(report.to_dict())["band_limited"] is True

    def test_from_dict_restores_the_report(self):
        from repro.passivity.characterization import PassivityReport

        model = random_macromodel(10, 3, seed=44, sigma_target=None)
        shifted = model.with_d(model.d + 1.2 * np.eye(3))
        report = characterize_passivity(shifted, representation="immittance")
        assert report.bands
        payload = round_trip(report.to_dict(include_solve=True))
        rebuilt = PassivityReport.from_dict(payload)
        assert rebuilt.representation == "immittance"
        assert rebuilt.bands == report.bands
        assert rebuilt.summary() == report.summary()
        assert rebuilt.to_dict(include_solve=True) == payload


class TestFitResult:
    def test_to_dict_round_trips(self, model):
        freqs = np.linspace(0.05, 14.0, 150)
        fit = vector_fit(freqs, model.frequency_response(freqs), num_poles=8)
        payload = round_trip(fit.to_dict())
        assert payload["num_poles"] == 8
        assert payload["model"]["poles"], "pole data missing"
        assert payload["rms_error"] < 1e-3


class TestToJsonable:
    def test_numpy_scalars(self):
        assert to_jsonable(np.int64(3)) == 3
        assert to_jsonable(np.float64(1.5)) == 1.5
        assert to_jsonable(np.bool_(True)) is True

    def test_complex(self):
        assert to_jsonable(1 + 2j) == {"re": 1.0, "im": 2.0}

    def test_nonfinite_to_null(self):
        assert to_jsonable(float("nan")) is None
        assert to_jsonable(np.inf) is None

    def test_arrays_nested(self):
        out = to_jsonable(np.array([[1.0, 2.0], [3.0, 4.0]]))
        assert out == [[1.0, 2.0], [3.0, 4.0]]

    def test_complex_array(self):
        out = to_jsonable(np.array([1 + 1j]))
        assert out == [{"re": 1.0, "im": 1.0}]

    def test_unconvertible_rejected(self):
        with pytest.raises(TypeError):
            to_jsonable(object())
