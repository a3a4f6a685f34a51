"""Tests for engine configuration."""

from __future__ import annotations

import pytest

from repro.config import Config
from repro.errors import CapacityError


class TestConfig:
    def test_defaults_match_paper_geometry(self):
        config = Config()
        assert config.batch_size_bytes == 4 * 1024 * 1024  # paper: 4 MB batches
        assert config.max_row_bytes == 1024  # paper: rows up to 1 KB

    def test_with_options_returns_modified_copy(self):
        base = Config()
        derived = base.with_options(shuffle_partitions=16)
        assert derived.shuffle_partitions == 16
        assert base.shuffle_partitions == 8  # original untouched

    def test_rejects_invalid_parallelism(self):
        with pytest.raises(ValueError):
            Config(shuffle_partitions=0)
        with pytest.raises(ValueError):
            Config(executor_threads=0)
        with pytest.raises(ValueError):
            Config(default_parallelism=-1)

    def test_rejects_row_larger_than_batch(self):
        with pytest.raises(CapacityError):
            Config(batch_size_bytes=2048, max_row_bytes=4096)

    def test_rejects_tiny_batches(self):
        with pytest.raises(CapacityError):
            Config(batch_size_bytes=100)


class TestEnvFlags:
    """Shared REPRO_* boolean parsing (`_env_flag`)."""

    def test_true_spellings(self, monkeypatch):
        from repro.config import _env_flag

        for raw in ("1", "true", "TRUE", "Yes", "on", " ON "):
            monkeypatch.setenv("REPRO_X", raw)
            assert _env_flag("REPRO_X") is True, raw

    def test_false_spellings(self, monkeypatch):
        from repro.config import _env_flag

        for raw in ("0", "false", "FALSE", "No", "off", ""):
            monkeypatch.setenv("REPRO_X", raw)
            assert _env_flag("REPRO_X", default=True) is False, raw

    def test_unset_uses_default(self, monkeypatch):
        from repro.config import _env_flag

        monkeypatch.delenv("REPRO_X", raising=False)
        assert _env_flag("REPRO_X") is False
        assert _env_flag("REPRO_X", default=True) is True

    def test_typo_is_loud(self, monkeypatch):
        from repro.config import _env_flag

        monkeypatch.setenv("REPRO_X", "yse")
        with pytest.raises(ValueError, match="REPRO_X"):
            _env_flag("REPRO_X")

    def test_sanitizers_default_tracks_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZERS", "1")
        assert Config().sanitizers_enabled is True
        monkeypatch.delenv("REPRO_SANITIZERS")
        assert Config().sanitizers_enabled is False

    def test_durability_default_tracks_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_DURABILITY", "on")
        assert Config().durability_enabled is True
        monkeypatch.delenv("REPRO_DURABILITY")
        assert Config().durability_enabled is False

    def test_explicit_config_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_DURABILITY", "1")
        assert Config(durability_enabled=False).durability_enabled is False


class TestDurabilityKnobs:
    def test_defaults(self):
        config = Config()
        assert config.durability_enabled is False
        assert config.wal_fsync is True
        assert config.wal_checkpoint_bytes == 4 * 1024 * 1024

    def test_rejects_bad_thresholds(self):
        with pytest.raises(ValueError):
            Config(wal_checkpoint_bytes=0)
        with pytest.raises(ValueError):
            Config(wal_checkpoint_age_s=0)
        with pytest.raises(ValueError):
            Config(checkpoint_poll_s=0)


class TestServingKnobs:
    def test_defaults(self):
        config = Config()
        assert config.serving_enabled is False
        assert config.serving_max_concurrent == 4
        assert config.serving_queue_depth == 16
        assert config.serving_memory_budget_bytes == 256 * 1024 * 1024

    def test_serving_default_tracks_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVING", "1")
        assert Config().serving_enabled is True
        monkeypatch.delenv("REPRO_SERVING")
        assert Config().serving_enabled is False

    def test_explicit_config_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVING", "1")
        assert Config(serving_enabled=False).serving_enabled is False

    def test_rejects_bad_time_and_size_knobs(self):
        from repro.errors import ConfigError

        bad = [
            dict(serving_max_concurrent=0),
            dict(serving_queue_depth=-1),
            dict(serving_queue_timeout_s=0),
            dict(serving_tenant_max_concurrent=0),
            dict(serving_default_deadline_s=-1.0),
            dict(serving_memory_budget_bytes=0),
            dict(serving_query_memory_bytes=-5),
            dict(serving_breaker_failures=0),
            dict(serving_breaker_reset_s=-0.1),
            dict(serving_scan_rows_per_s=0),
            dict(serving_min_sample_fraction=0),
            dict(serving_min_sample_fraction=1.5),
            dict(stage_timeout_s=0),
            dict(target_reduce_bytes=0),
        ]
        for overrides in bad:
            with pytest.raises(ConfigError):
                Config(**overrides)

    def test_config_error_is_a_value_error(self):
        from repro.errors import ConfigError

        with pytest.raises(ValueError):
            Config(serving_max_concurrent=0)
        assert issubclass(ConfigError, ValueError)

    def test_error_names_the_knob_and_value(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError, match="serving_queue_timeout_s"):
            Config(serving_queue_timeout_s=-2)


class TestClusterLivenessKnobs:
    def test_defaults_are_valid(self):
        config = Config()
        assert config.heartbeat_interval > 0
        assert config.heartbeat_timeout > config.heartbeat_interval
        assert config.rpc_deadline is None
        assert config.rpc_max_retries >= 0
        assert config.fault_schedule is None

    def test_zero_interval_disables_heartbeats(self):
        assert Config(heartbeat_interval=0.0).heartbeat_interval == 0.0

    def test_rejects_bad_liveness_knobs(self):
        from repro.errors import ConfigError

        bad = [
            dict(heartbeat_interval=-0.1),
            dict(heartbeat_timeout=0.0),
            dict(heartbeat_timeout=-1.0),
            # several beats must fit inside the timeout window
            dict(heartbeat_interval=1.0, heartbeat_timeout=0.5),
            dict(heartbeat_interval=1.0, heartbeat_timeout=1.0),
            dict(rpc_deadline=0.0),
            dict(rpc_deadline=-2.0),
            dict(rpc_max_retries=-1),
        ]
        for overrides in bad:
            with pytest.raises(ConfigError):
                Config(**overrides)

    def test_error_names_the_liveness_knob(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError, match="heartbeat_timeout"):
            Config(heartbeat_interval=1.0, heartbeat_timeout=0.25)
        with pytest.raises(ConfigError, match="rpc_deadline"):
            Config(rpc_deadline=0)

    def test_fault_schedule_travels_in_config(self):
        from repro.faults import FaultSchedule

        schedule = FaultSchedule(seed=9, hang_p=0.5)
        assert Config(fault_schedule=schedule).fault_schedule is schedule
