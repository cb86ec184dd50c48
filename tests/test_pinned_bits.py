"""Pinned bits: sha256 digests of engine and sampler output.

The digests were taken before the batch stream seeding and the Brownian
batch rewrites, and every later change that is meant to keep bits must
keep them.  A change that alters bits on purpose updates a digest here
and says so in CHANGES.md.
"""

import hashlib
import json

import numpy as np
import pytest

from urlab import (
    ExperimentConfig,
    FilterSpec,
    InnovationSpec,
    LimitParams,
    estimate_constants,
    limit_sample_batch,
    sample_statistics,
)


def _columns_digest(by_n: dict) -> str:
    h = hashlib.sha256()
    for n in sorted(by_n):
        for name in sorted(by_n[n]):
            col = np.ascontiguousarray(by_n[n][name])
            h.update(f"{n}/{name}/{col.dtype.str}/{col.shape}:".encode())
            h.update(col.tobytes())
    return h.hexdigest()


def test_gaussian_unit_root_grid_with_ape():
    # 27 taps, so a path at n = 5 reads 5 of them, in one step block; 2500
    # reps span several stream-seeding blocks
    cfg = ExperimentConfig(
        filter_spec=FilterSpec(family="geometric", a=1.0, r=0.5),
        innovations=InnovationSpec(sigma_omega_sq=2.0, sigma_sq=1.0, pi=0.5),
        beta=0.8, n_grid=(5, 40, 120), reps=2500, base_seed=3,
        statistics=("fpe_stat", "excess_ape"),
    )
    assert _columns_digest(sample_statistics(cfg, cfg.n_grid)) == (
        "ade31146427b2efe8f2f50f2b0091b967bb030e50a77fff88f1f7df683e2621a"
    )


def test_gaussian_grid_keeps_its_digest_on_the_fallback_path(misplaced_layout, generators_built):
    # numpy seeds every key's generator itself
    test_gaussian_unit_root_grid_with_ape()
    assert generators_built[0] > 2500


def test_laplace_stationary():
    cfg = ExperimentConfig(
        filter_spec=FilterSpec(family="finite", coeffs=(1.0, -0.4, 0.1)),
        innovations=InnovationSpec(sigma_omega_sq=1.0, sigma_sq=1.0, pi=0.3, family="laplace"),
        beta=1.0, varsigma=0.5, n_grid=(50,), reps=1500, base_seed=2**40 + 1,
        statistics=("fpe_stat", "excess_ape"),
    )
    assert _columns_digest(sample_statistics(cfg, cfg.n_grid)) == (
        "157de90ec1babc02eaf336b1f1edc8024afa738589d08a5cd7376db7e5a55e93"
    )


def test_cross_moment_shape_without_ape():
    # no APE at one n, as cross_moment and stationary_comparison call it;
    # 27 taps, and 300 reps in tiles of 32 rows
    cfg = ExperimentConfig(
        filter_spec=FilterSpec(family="geometric", a=1.0, r=0.5),
        innovations=InnovationSpec(sigma_omega_sq=1.5, sigma_sq=1.0, pi=-0.4),
        beta=1.2, n_grid=(2000,), reps=300, base_seed=7,
    )
    assert _columns_digest(sample_statistics(cfg, cfg.n_grid)) == (
        "3886eb86b6cca93e3b3b623bff2d3b09ef79169e3da01a3e918700eefad06ab3"
    )


def test_long_stationary_rows():
    # burn-in 20 + n 2100 spans 67 blocks, so the scan of the block ends
    # takes 5 doubling steps, where n = 100 takes 2; 120 reps in tiles of
    # 30 rows
    cfg = ExperimentConfig(
        filter_spec=FilterSpec(family="finite", coeffs=(1.0, 0.5)),
        innovations=InnovationSpec(sigma_omega_sq=1.0, sigma_sq=2.0, pi=0.7),
        beta=0.9, varsigma=0.5, n_grid=(100, 2100), reps=120, base_seed=13,
        statistics=("fpe_stat", "excess_ape"),
    )
    assert _columns_digest(sample_statistics(cfg, cfg.n_grid)) == (
        "0d8e82aeb94c84a65f88901f7c4b94fe71bcd6a1926eed1cae9ceadff75ae2bb"
    )


@pytest.mark.parametrize(
    "m,reps,digest",
    [
        # every eigenpair drawn, so no grid-m tail
        (64, 600, "7f7dd0ff5ed54d77c16a7736329b92f3855380ee8307e8fd5a61fbdaec3897f8"),
        # 64 of 1023 eigenpairs, tails in closed form
        (1024, 2500, "1b4febd8694996dcadce17a5863efb27225c0da202df549ca6ab944f7c17df67"),
    ],
    ids=["64-600", "1024-2500"],
)
def test_estimate_constants(m, reps, digest):
    report = estimate_constants(m=m, reps=reps, base_seed=4)
    assert hashlib.sha256(json.dumps(report.as_dict()).encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "m,digest",
    [
        (64, "6f9a3bbc5099d95e4ece9bbc8979042890c238b9d4e834c9c91fec85cf0c5833"),
        (1024, "a81afe2a237845646386ff07828fc05d734055280879463800dddd0db7085217"),
    ],
    ids=["64", "1024"],
)
def test_limit_sample_batch(m, digest):
    params = LimitParams(rho=0.6, sigma_omega=1.2, sigma_theta=0.7, theta=1.5)
    draws = limit_sample_batch(params, m, 2500, base_seed=8)
    assert draws.pop("resampled") == 0
    assert _columns_digest({m: draws}) == digest
