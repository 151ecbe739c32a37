"""Tests for S3D checkpoint I/O through the simulated Lustre."""

import pytest

from repro.apps.s3d.checkpoint import STATE_VARIABLES, CheckpointStudy
from repro.lustre import LustreConfig


def test_restart_file_sizing():
    s = CheckpointStudy(ntasks=8)
    assert s.bytes_per_task == 50**3 * STATE_VARIABLES * 8


def test_write_time_positive_and_scales_with_writers():
    small, _ = CheckpointStudy(ntasks=4).write_time_s()
    large, _ = CheckpointStudy(ntasks=32).write_time_s()
    assert 0 < small < large  # servers saturate; more writers take longer


def test_fpp_metadata_grows_ssf_does_not():
    fpp_t, fpp_meta = CheckpointStudy(ntasks=64).write_time_s("file-per-process")
    ssf_t, ssf_meta = CheckpointStudy(ntasks=64).write_time_s("single-shared-file")
    assert fpp_meta > 10 * ssf_meta


def test_shared_file_striped_wide_competitive():
    # With the shared file striped across every OST, data bandwidth
    # matches file-per-process within ~2x.
    fpp_t, _ = CheckpointStudy(ntasks=16).write_time_s("file-per-process")
    ssf_t, _ = CheckpointStudy(ntasks=16).write_time_s("single-shared-file")
    assert ssf_t < 2 * fpp_t


def test_overhead_fraction():
    s = CheckpointStudy(ntasks=16, config=LustreConfig(num_oss=8))
    frac = s.checkpoint_overhead_fraction(
        step_seconds=5.0, steps_between_checkpoints=100
    )
    assert 0 < frac < 0.2
    with pytest.raises(ValueError):
        s.checkpoint_overhead_fraction(0.0, 10)
    with pytest.raises(ValueError):
        s.checkpoint_overhead_fraction(1.0, 0)


def test_validation():
    with pytest.raises(ValueError):
        CheckpointStudy(ntasks=0)
    with pytest.raises(ValueError):
        CheckpointStudy(ntasks=2).write_time_s("strided")


@pytest.mark.parametrize("points", [0, -1])
def test_empty_checkpoint_rejected_by_its_own_parameter(points):
    with pytest.raises(ValueError, match="points_per_task must be >= 1"):
        CheckpointStudy(ntasks=2, points_per_task=points)
