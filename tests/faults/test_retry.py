"""Tests for the deterministic retry backoff policy."""

import pytest

from repro.errors import FaultError
from repro.faults import RetryPolicy
from repro.faults import retry as retry_module


class TestValidation:
    def test_rejects_bad_parameters(self):
        with pytest.raises(FaultError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(FaultError):
            RetryPolicy(base_delay=0.0)
        with pytest.raises(FaultError):
            RetryPolicy(base_delay=10.0, max_delay=1.0)
        with pytest.raises(FaultError):
            RetryPolicy().backoff(1, -1)


class TestBackoff:
    def test_deterministic_per_submission_and_attempt(self):
        policy = RetryPolicy(seed=5)
        assert policy.backoff(7, 0) == policy.backoff(7, 0)
        assert policy.backoff(7, 0) != policy.backoff(8, 0)
        assert policy.backoff(7, 0) != policy.backoff(7, 1)

    def test_grows_exponentially_within_jitter(self):
        # The module's growth factor 2 and jitter span 0.5.
        policy = RetryPolicy(base_delay=1.0, max_delay=100.0)
        for attempt in range(5):
            base = 2.0**attempt
            delay = policy.backoff(0, attempt)
            assert base <= delay <= base * 1.5

    def test_cap_applies_before_jitter(self, monkeypatch):
        monkeypatch.setattr(retry_module, "MULTIPLIER", 10.0)
        policy = RetryPolicy(base_delay=1.0, max_delay=8.0)
        delay = policy.backoff(0, 6)
        assert 8.0 <= delay <= 12.0

    def test_zero_jitter_is_exact(self, monkeypatch):
        monkeypatch.setattr(retry_module, "MULTIPLIER", 3.0)
        monkeypatch.setattr(retry_module, "JITTER", 0.0)
        policy = RetryPolicy(base_delay=2.0)
        assert policy.backoff(123, 2) == pytest.approx(18.0)

    def test_different_seeds_spread_differently(self):
        a = RetryPolicy(seed=0).backoff(1, 1)
        b = RetryPolicy(seed=1).backoff(1, 1)
        assert a != b
