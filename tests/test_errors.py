"""Tests for the exception hierarchy, focusing on the serving errors."""

import pytest

from repro.errors import (
    AdmissionError,
    BTreeError,
    ConfigError,
    FaultError,
    MasterCrashError,
    RecoveryError,
    ReproError,
    SchedulingError,
    ServiceError,
    StorageError,
)


class TestHierarchy:
    def test_service_errors_are_repro_errors(self):
        assert issubclass(ServiceError, ReproError)
        assert issubclass(AdmissionError, ServiceError)

    def test_one_except_clause_catches_everything(self):
        for error in (
            ConfigError("bad config"),
            SchedulingError("bad task"),
            AdmissionError(2, "nope"),
        ):
            with pytest.raises(ReproError):
                raise error


class TestAdmissionError:
    def test_carries_submission_id_and_reason(self):
        error = AdmissionError(7, "submission has no tasks")
        assert error.submission_id == 7
        assert "submission 7" in str(error)
        assert "no tasks" in str(error)


class TestBTreeError:
    def test_is_a_storage_error(self):
        assert issubclass(BTreeError, StorageError)

    def test_unknown_attribute_still_raises(self):
        import repro.errors as errors_module

        with pytest.raises(AttributeError):
            errors_module.NoSuchError  # noqa: B018


class TestFaultErrors:
    def test_fault_and_resilience_errors_are_repro_errors(self):
        assert issubclass(FaultError, ReproError)


class TestRecoveryErrors:
    def test_recovery_errors_are_repro_errors(self):
        assert issubclass(RecoveryError, ReproError)
        assert issubclass(MasterCrashError, ReproError)

    def test_master_crash_carries_times(self):
        error = MasterCrashError(2.5, 1.75)
        assert error.at == 2.5
        assert error.checkpoint_at == 1.75
        assert "t=2.500" in str(error)
        assert "t=1.750" in str(error)

    def test_master_crash_without_checkpoint(self):
        error = MasterCrashError(0.5)
        assert error.checkpoint_at is None
        assert "no checkpoint yet" in str(error)
