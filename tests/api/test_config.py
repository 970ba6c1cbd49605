"""Unit tests for the unified RunConfig."""

import json

import numpy as np
import pytest

from repro.core.config import ConfigError, RunConfig, ensure_representation
from repro.core.options import SolverOptions
from repro.core.registry import resolve_strategy


class TestConstruction:
    def test_defaults(self):
        config = RunConfig()
        assert config.num_threads == 1
        assert config.representation == "scattering"
        assert config.strategy == "auto"
        assert config.omega_min == 0.0
        assert config.omega_max is None
        assert isinstance(config.options, SolverOptions)

    def test_frozen(self):
        with pytest.raises(AttributeError):
            RunConfig().num_threads = 2

    def test_bad_threads(self):
        with pytest.raises(ValueError):
            RunConfig(num_threads=0)

    def test_bad_strategy_lists_choices(self):
        with pytest.raises(ValueError, match="unknown strategy.*bisection"):
            RunConfig(strategy="bogus")

    def test_bad_representation_lists_choices(self):
        with pytest.raises(ValueError, match="unknown representation.*immittance"):
            RunConfig(representation="bogus")

    def test_bad_band(self):
        with pytest.raises(ValueError, match="omega_max"):
            RunConfig(omega_min=2.0, omega_max=1.0)

    def test_bad_options_type(self):
        with pytest.raises(TypeError, match="SolverOptions"):
            RunConfig(options={"krylov_dim": 40})

    def test_ensure_representation(self):
        assert ensure_representation("immittance") == "immittance"
        with pytest.raises(ValueError, match="unknown representation"):
            ensure_representation("Y")


class TestFromDict:
    def test_round_trip(self):
        config = RunConfig(
            num_threads=4,
            strategy="static",
            representation="immittance",
            omega_min=0.5,
            omega_max=10.0,
            options=SolverOptions(krylov_dim=40, num_wanted=4),
        )
        rebuilt = RunConfig.from_dict(config.to_dict())
        assert rebuilt == config

    def test_to_dict_is_json_serializable(self):
        payload = RunConfig(num_threads=2).to_dict()
        assert json.loads(json.dumps(payload)) == payload

    def test_nested_options_mapping(self):
        config = RunConfig.from_dict({"options": {"krylov_dim": 50}})
        assert config.options.krylov_dim == 50

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown RunConfig field"):
            RunConfig.from_dict({"threads": 4})

    def test_non_mapping_rejected(self):
        with pytest.raises(TypeError):
            RunConfig.from_dict([("num_threads", 4)])

    def test_values_coerced_to_plain_python(self):
        config = RunConfig(
            num_threads=np.int64(2),
            omega_min=np.float64(0.5),
            omega_max=np.float64(9.0),
        )
        assert type(config.num_threads) is int
        assert type(config.omega_min) is float
        assert type(config.omega_max) is float
        assert json.loads(json.dumps(config.to_dict()))["omega_max"] == 9.0

    def test_string_band_value_rejected(self):
        with pytest.raises(TypeError, match="omega_max"):
            RunConfig.from_dict({"omega_max": "10"})


class TestFromEnv:
    def test_empty_environment_gives_defaults(self):
        assert RunConfig.from_env({}) == RunConfig()

    def test_overrides(self):
        config = RunConfig.from_env(
            {
                "REPRO_NUM_THREADS": "6",
                "REPRO_STRATEGY": "queue",
                "REPRO_REPRESENTATION": "immittance",
                "REPRO_OMEGA_MIN": "0.25",
                "REPRO_OMEGA_MAX": "9.5",
                "REPRO_SEED": "123",
            }
        )
        assert config.num_threads == 6
        assert config.strategy == "queue"
        assert config.representation == "immittance"
        assert config.omega_min == 0.25
        assert config.omega_max == 9.5
        assert config.options.seed == 123

    def test_omega_max_auto(self):
        config = RunConfig.from_env({"REPRO_OMEGA_MAX": "none"})
        assert config.omega_max is None

    def test_empty_omega_max_clears_base_band(self):
        base = RunConfig(omega_max=5.0)
        config = RunConfig.from_env({"REPRO_OMEGA_MAX": ""}, base=base)
        assert config.omega_max is None

    def test_base_preserved(self):
        base = RunConfig(num_threads=3, strategy="static")
        config = RunConfig.from_env({"REPRO_NUM_THREADS": "5"}, base=base)
        assert config.num_threads == 5
        assert config.strategy == "static"

    def test_invalid_value_raises(self):
        with pytest.raises(ValueError, match="unknown strategy"):
            RunConfig.from_env({"REPRO_STRATEGY": "bogus"})

    def test_malformed_value_names_the_variable(self):
        with pytest.raises(ValueError, match="REPRO_NUM_THREADS"):
            RunConfig.from_env({"REPRO_NUM_THREADS": "four"})
        with pytest.raises(ValueError, match="REPRO_OMEGA_MAX"):
            RunConfig.from_env({"REPRO_OMEGA_MAX": "fast"})

    def test_backend_from_env(self):
        config = RunConfig.from_env(
            {"REPRO_BACKEND": "process", "REPRO_NUM_THREADS": "4"}
        )
        assert config.backend == "process"
        assert resolve_strategy(config.strategy, 4, backend="process") == "process"


class TestConfigError:
    """Every env parse failure is one uniform type naming the variable."""

    @pytest.mark.parametrize(
        "variable,value",
        [
            ("REPRO_NUM_THREADS", "four"),
            ("REPRO_NUM_THREADS", "4.5"),
            ("REPRO_OMEGA_MIN", "wide"),
            ("REPRO_OMEGA_MAX", "fast"),
            ("REPRO_SEED", "entropy"),
        ],
    )
    def test_malformed_values_raise_config_error(self, variable, value):
        with pytest.raises(ConfigError, match=variable):
            RunConfig.from_env({variable: value})

    @pytest.mark.parametrize(
        "environ",
        [
            {"REPRO_STRATEGY": "bogus"},
            {"REPRO_BACKEND": "gpu"},
            {"REPRO_REPRESENTATION": "admittance"},
            {"REPRO_NUM_THREADS": "0"},
            {"REPRO_OMEGA_MIN": "5", "REPRO_OMEGA_MAX": "1"},
        ],
    )
    def test_semantic_rejections_are_config_errors_too(self, environ):
        with pytest.raises(ConfigError):
            RunConfig.from_env(environ)

    def test_config_error_is_a_value_error(self):
        # Existing `except ValueError` call sites keep working.
        assert issubclass(ConfigError, ValueError)

    def test_importable_from_the_top_level(self):
        import repro

        assert repro.ConfigError is ConfigError

    def test_direct_construction_not_wrapped(self):
        # Only the environment path promises the uniform type; plain
        # constructor misuse stays a ValueError (possibly ConfigError's
        # parent) with the canonical message.
        with pytest.raises(ValueError, match="unknown strategy"):
            RunConfig(strategy="bogus")


class TestMerged:
    def test_merged_overrides_and_revalidates(self):
        config = RunConfig().merged(num_threads=8, strategy="static")
        assert config.num_threads == 8
        assert config.strategy == "static"
        with pytest.raises(ValueError):
            RunConfig().merged(num_threads=-1)

    def test_merged_no_overrides_returns_self(self):
        config = RunConfig()
        assert config.merged() is config

    def test_merged_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown RunConfig field"):
            RunConfig().merged(threads=8)

    def test_merged_options_mapping_layers_on_top(self):
        config = RunConfig(options=SolverOptions(krylov_dim=50))
        merged = config.merged(options={"num_wanted": 4})
        assert merged.options.krylov_dim == 50
        assert merged.options.num_wanted == 4

    def test_original_unchanged(self):
        config = RunConfig()
        config.merged(num_threads=8)
        assert config.num_threads == 1


class TestResolvedStrategy:
    """The strategy a config runs on a model of unknown order."""

    @staticmethod
    def resolved(config):
        return resolve_strategy(
            config.strategy, config.num_threads, backend=config.backend
        )

    def test_auto_serial(self):
        assert self.resolved(RunConfig()) == "bisection"

    def test_auto_parallel(self):
        assert self.resolved(RunConfig(num_threads=4)) == "queue"

    def test_explicit(self):
        assert self.resolved(RunConfig(strategy="static", num_threads=2)) == "static"


class TestCacheAxis:
    def test_defaults_off(self):
        config = RunConfig()
        assert config.cache == "off"
        assert config.cache_dir is None

    def test_bad_mode_lists_choices(self):
        with pytest.raises(ValueError, match="off.*read.*readwrite"):
            RunConfig(cache="always")

    def test_cache_dir_accepts_pathlike(self):
        from pathlib import Path

        config = RunConfig(cache_dir=Path("/tmp/store"))
        assert config.cache_dir == "/tmp/store"

    def test_cache_dir_type_rejected(self):
        with pytest.raises(TypeError, match="cache_dir"):
            RunConfig(cache_dir=123)

    def test_to_dict_round_trip(self):
        config = RunConfig(cache="readwrite", cache_dir="/tmp/store")
        rebuilt = RunConfig.from_dict(config.to_dict())
        assert rebuilt == config
        assert rebuilt.cache == "readwrite"

    def test_from_env(self):
        config = RunConfig.from_env(
            {"REPRO_CACHE": "ReadWrite", "REPRO_CACHE_DIR": "/tmp/env-store"}
        )
        assert config.cache == "readwrite"
        assert config.cache_dir == "/tmp/env-store"

    def test_from_env_invalid_mode_is_config_error(self):
        from repro.core.config import ConfigError

        with pytest.raises(ConfigError, match="cache"):
            RunConfig.from_env({"REPRO_CACHE": "sometimes"})

    def test_merged_revalidates(self):
        with pytest.raises(ValueError):
            RunConfig().merged(cache="nope")
        assert RunConfig().merged(cache="read").cache == "read"
