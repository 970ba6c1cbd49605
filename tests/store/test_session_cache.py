"""Transparent session-level caching: counters, modes, payload identity."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Macromodel
from repro.core.config import RunConfig
from repro.macromodel.realization import pole_residue_to_simo
from repro.store import (
    STAGES,
    STORE_SCHEMA_VERSION,
    ResultStore,
    content_key,
    decode_result,
    encode_result,
    result_key,
)
from repro.synth.generator import random_macromodel


@pytest.fixture()
def model():
    return random_macromodel(8, 2, seed=11, sigma_target=1.05)


def _rw(tmp_path, **kwargs) -> RunConfig:
    return RunConfig(cache="readwrite", cache_dir=str(tmp_path), **kwargs)


def _dump(payload) -> str:
    return json.dumps(payload, sort_keys=True)


class TestCheckCaching:
    def test_second_check_is_a_hit_with_identical_payload(self, tmp_path, model):
        config = _rw(tmp_path)
        first = Macromodel.from_pole_residue(model, config=config).check_passivity()
        assert first.cache_stats == {"hits": 0, "misses": 1, "writes": 1}

        second = Macromodel.from_pole_residue(model, config=config).check_passivity()
        assert second.cache_stats == {"hits": 1, "misses": 0, "writes": 0}
        assert _dump(second.passivity_report.to_dict()) == _dump(
            first.passivity_report.to_dict()
        )
        # The hit rebuilt the full solve provenance, not a hollow shell.
        assert second.passivity_report.solve is not None
        np.testing.assert_array_equal(
            second.passivity_report.solve.omegas,
            first.passivity_report.solve.omegas,
        )

    def test_hit_skips_the_eigensweep_entirely(self, tmp_path, model, monkeypatch):
        config = _rw(tmp_path)
        Macromodel.from_pole_residue(model, config=config).check_passivity()

        import repro.passivity.characterization as characterization

        def boom(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("eigensweep ran despite a cache hit")

        monkeypatch.setattr(characterization, "solve", boom)
        session = Macromodel.from_pole_residue(model, config=config)
        session.check_passivity()
        assert session.cache_stats["hits"] == 1

    def test_entry_without_representation_reads_as_scattering_hit(
        self, tmp_path, model
    ):
        # Check entries written before reports named their test carry no
        # "representation" key; every such entry is a scattering report.
        assert STORE_SCHEMA_VERSION == 2
        config = _rw(tmp_path)
        fresh = Macromodel.from_pole_residue(model).check_passivity()
        payload = encode_result("check", fresh.passivity_report)
        del payload["representation"]
        key = result_key(
            stage="check", input_digest=content_key(model.to_dict()), config=config
        )
        assert ResultStore(tmp_path).put(key, payload, stage="check")

        session = Macromodel.from_pole_residue(model, config=config)
        session.check_passivity()
        assert session.cache_stats == {"hits": 1, "misses": 0, "writes": 0}
        report = session.passivity_report
        assert report.representation == "scattering"
        assert report.summary() == fresh.passivity_report.summary()
        assert _dump(report.to_dict()) == _dump(fresh.passivity_report.to_dict())

    def test_immittance_check_is_a_check_hit(self, tmp_path, model):
        shifted = model.with_d(model.d + 1.2 * np.eye(2))
        config = _rw(tmp_path, representation="immittance")
        first = Macromodel.from_pole_residue(shifted, config=config)
        first.check_passivity()
        assert first.metrics.snapshot()["timings"]["stage.check"]["count"] == 1
        second = Macromodel.from_pole_residue(shifted, config=config)
        second.check_passivity()
        assert second.cache_stats == {"hits": 1, "misses": 0, "writes": 0}
        assert second.passivity_report.representation == "immittance"
        assert _dump(second.passivity_report.to_dict()) == _dump(
            first.passivity_report.to_dict()
        )

    def test_different_config_is_a_miss(self, tmp_path, model):
        Macromodel.from_pole_residue(model, config=_rw(tmp_path)).check_passivity()
        other = Macromodel.from_pole_residue(
            model, config=_rw(tmp_path, num_threads=2)
        ).check_passivity()
        assert other.cache_stats["hits"] == 0
        assert other.cache_stats["misses"] == 1

    def test_different_model_is_a_miss(self, tmp_path, model):
        config = _rw(tmp_path)
        Macromodel.from_pole_residue(model, config=config).check_passivity()
        other_model = random_macromodel(8, 2, seed=12, sigma_target=1.05)
        other = Macromodel.from_pole_residue(
            other_model, config=config
        ).check_passivity()
        assert other.cache_stats["hits"] == 0

    def test_simo_sessions_bypass_the_cache(self, tmp_path, model):
        simo = pole_residue_to_simo(model)
        session = Macromodel.from_pole_residue(simo, config=_rw(tmp_path))
        session.check_passivity()
        assert session.cache_stats == {"hits": 0, "misses": 0, "writes": 0}


class TestModes:
    def test_off_mode_never_touches_the_store(self, tmp_path, model):
        session = Macromodel.from_pole_residue(
            model, config=RunConfig(cache="off", cache_dir=str(tmp_path))
        ).check_passivity()
        assert session.cache_stats == {"hits": 0, "misses": 0, "writes": 0}
        assert ResultStore(tmp_path).stats()["entries"] == 0

    def test_read_mode_serves_but_never_writes(self, tmp_path, model):
        read_config = RunConfig(cache="read", cache_dir=str(tmp_path))
        first = Macromodel.from_pole_residue(model, config=read_config)
        first.check_passivity()
        assert first.cache_stats == {"hits": 0, "misses": 1, "writes": 0}
        assert ResultStore(tmp_path).stats()["entries"] == 0

        Macromodel.from_pole_residue(model, config=_rw(tmp_path)).check_passivity()
        second = Macromodel.from_pole_residue(model, config=read_config)
        second.check_passivity()
        assert second.cache_stats["hits"] == 1

    def test_off_is_bit_identical_to_no_cache(self, tmp_path, model):
        cached = Macromodel.from_pole_residue(
            model, config=_rw(tmp_path)
        ).check_passivity()
        plain = Macromodel.from_pole_residue(model).check_passivity()
        a = cached.passivity_report.to_dict()
        b = plain.passivity_report.to_dict()
        # Timings differ run to run; everything semantic must agree.
        for payload in (a, b):
            payload.pop("work", None)
        assert _dump(a) == _dump(b)


class TestOtherStages:
    def test_enforce_hinf_solve_fit_round_trip(self, tmp_path, model):
        config = _rw(tmp_path)
        first = (
            Macromodel.from_pole_residue(model, config=config)
            .check_passivity()
            .enforce()
            .hinf()
        )
        second = (
            Macromodel.from_pole_residue(model, config=config)
            .check_passivity()
            .enforce()
            .hinf()
        )
        assert second.cache_stats == {"hits": 3, "misses": 0, "writes": 0}
        assert _dump(second.enforcement_result.to_dict()) == _dump(
            first.enforcement_result.to_dict()
        )
        assert _dump(second.hinf_result.to_dict()) == _dump(
            first.hinf_result.to_dict()
        )
        # The enforced model itself round-tripped bit-exactly.
        np.testing.assert_array_equal(second.model.poles, first.model.poles)
        np.testing.assert_array_equal(second.model.residues, first.model.residues)

    def test_find_crossings_cached(self, tmp_path, model):
        config = _rw(tmp_path)
        first = Macromodel.from_pole_residue(model, config=config).find_crossings()
        second = Macromodel.from_pole_residue(model, config=config).find_crossings()
        assert second.cache_stats["hits"] == 1
        assert _dump(second.solve_result.to_dict()) == _dump(
            first.solve_result.to_dict()
        )

    def test_fit_cached_across_sessions(self, tmp_path, model):
        freqs = np.linspace(0.01, 16.0, 120)
        samples = model.frequency_response(freqs)
        config = _rw(tmp_path)
        first = Macromodel.from_samples(freqs, samples, config=config).fit(
            num_poles=8
        )
        second = Macromodel.from_samples(freqs, samples, config=config).fit(
            num_poles=8
        )
        assert second.cache_stats["hits"] == 1
        assert _dump(second.fit_result.to_dict()) == _dump(
            first.fit_result.to_dict()
        )
        third = Macromodel.from_samples(freqs, samples, config=config).fit(
            num_poles=10
        )
        assert third.cache_stats["hits"] == 0

    def test_session_to_dict_reports_cache_traffic(self, tmp_path, model):
        config = _rw(tmp_path)
        session = Macromodel.from_pole_residue(model, config=config)
        session.check_passivity()
        assert session.to_dict()["cache"] == {
            "hits": 0,
            "misses": 1,
            "writes": 1,
        }
        plain = Macromodel.from_pole_residue(model).check_passivity()
        assert "cache" not in plain.to_dict()

    def test_session_metrics_record_stage_and_cache_traffic(self, tmp_path, model):
        session = Macromodel.from_pole_residue(model, config=_rw(tmp_path))
        session.check_passivity().check_passivity()
        snapshot = session.metrics.snapshot()
        # The hit skipped the stage, so only the miss was timed.
        assert snapshot["timings"]["stage.check"]["count"] == 1
        assert snapshot["counters"] == {
            "cache.misses": 1,
            "cache.writes": 1,
            "cache.hits": 1,
        }


class TestCorruptEntryFallback:
    def test_corrupt_cache_entry_recomputes(self, tmp_path, model):
        config = _rw(tmp_path)
        Macromodel.from_pole_residue(model, config=config).check_passivity()
        store = ResultStore(tmp_path)
        entries = store._scan()
        assert len(entries) == 1
        entries[0][1].write_bytes(b"{ corrupted")
        session = Macromodel.from_pole_residue(model, config=config)
        session.check_passivity()
        assert session.cache_stats == {"hits": 0, "misses": 1, "writes": 1}
        assert session.passivity_report is not None


class TestPropertyCachedEqualsFresh:
    """Satellite requirement: cached and freshly computed ``to_dict()``
    payloads are identical, over randomized models and stages."""

    @settings(max_examples=8, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        stage=st.sampled_from(["check", "solve", "hinf"]),
    )
    def test_cached_payload_equals_fresh_payload(self, tmp_path_factory, seed, stage):
        tmp_path = tmp_path_factory.mktemp("prop-store")
        model = random_macromodel(6, 2, seed=seed, sigma_target=1.04)
        config = RunConfig(cache="readwrite", cache_dir=str(tmp_path))

        def run(session):
            if stage == "check":
                return session.check_passivity().passivity_report
            if stage == "solve":
                return session.find_crossings().solve_result
            return session.hinf().hinf_result

        fresh = run(Macromodel.from_pole_residue(model, config=config))
        cached_session = Macromodel.from_pole_residue(model, config=config)
        cached = run(cached_session)
        assert cached_session.cache_stats["hits"] == 1
        assert _dump(cached.to_dict()) == _dump(fresh.to_dict())

    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_codec_round_trip_is_exact(self, seed):
        model = random_macromodel(6, 2, seed=seed, sigma_target=1.04)
        session = Macromodel.from_pole_residue(model).check_passivity().hinf()
        for stage, result in (
            ("check", session.passivity_report),
            ("hinf", session.hinf_result),
        ):
            payload = encode_result(stage, result)
            rebuilt = decode_result(stage, json.loads(json.dumps(payload)))
            assert _dump(encode_result(stage, rebuilt)) == _dump(payload)

    def test_every_registered_stage_has_both_directions(self):
        for stage, (encoder, decoder) in STAGES.items():
            assert callable(encoder) and callable(decoder), stage
