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
from urlab import monte_carlo


def _columns_digest(by_n: dict) -> str:
    h = hashlib.sha256()
    for n in sorted(by_n):
        for name in sorted(by_n[n]):
            col = np.ascontiguousarray(by_n[n][name])
            h.update(f"{n}/{name}/{col.dtype.str}/{col.shape}:".encode())
            h.update(col.tobytes())
    return h.hexdigest()


def test_gaussian_unit_root_grid_with_ape():
    # 27 taps, so n = 5 is scored in a pass of its own; 2500 reps span
    # several stream-seeding blocks
    cfg = ExperimentConfig(
        filter_spec=FilterSpec(family="geometric", a=1.0, r=0.5),
        innovations=InnovationSpec(sigma_omega_sq=2.0, sigma_sq=1.0, pi=0.5),
        beta=0.8, n_grid=(5, 40, 120), reps=2500, base_seed=3,
        statistics=("fpe_stat", "excess_ape"),
    )
    assert _columns_digest(sample_statistics(cfg, cfg.n_grid)) == (
        "433703615a953fa9acc043d304684f6b717869e45f09aa89b458dccbf0f1c9d6"
    )


def test_laplace_stationary():
    cfg = ExperimentConfig(
        filter_spec=FilterSpec(family="finite", coeffs=(1.0, -0.4, 0.1)),
        innovations=InnovationSpec(sigma_omega_sq=1.0, sigma_sq=1.0, pi=0.3, family="laplace"),
        beta=1.0, varsigma=0.5, n_grid=(50,), reps=1500, base_seed=2**40 + 1,
        statistics=("fpe_stat", "excess_ape"),
    )
    assert _columns_digest(sample_statistics(cfg, cfg.n_grid)) == (
        "577e6368848eeee422a76fc0586a423f48db6ba80d822a885227dea2cad3305e"
    )


def test_uniform_with_resampled_rows(monkeypatch):
    # flagged rows are redrawn from attempt 1, 2, ... streams
    monkeypatch.setattr(monte_carlo, "MAX_FAILURE_RATE", 1.0)
    monkeypatch.setattr(monte_carlo, "_degenerate_mask", lambda u: u[:, 0] > 0.8)
    cfg = ExperimentConfig(
        filter_spec=FilterSpec(family="finite", coeffs=(1.0,)),
        innovations=InnovationSpec(sigma_omega_sq=1.0, sigma_sq=1.0, pi=0.6, family="uniform"),
        n_grid=(30, 60), reps=1200, base_seed=5,
        statistics=("excess_ape",),
    )
    columns = sample_statistics(cfg, cfg.n_grid)
    assert columns[30]["resampled"][0] > 0
    assert _columns_digest(columns) == (
        "d308445f5ba6975d9cd06fa596b62cdfd1fb9970480dd8ee182671cc63fc47ca"
    )


def test_cross_moment_shape_without_ape():
    # want_ape=False at one n, as cross_moment and stationary_comparison
    # call it; 27 taps, and 300 reps in tiles of 32 rows
    cfg = ExperimentConfig(
        filter_spec=FilterSpec(family="geometric", a=1.0, r=0.5),
        innovations=InnovationSpec(sigma_omega_sq=1.5, sigma_sq=1.0, pi=-0.4),
        beta=1.2, n_grid=(2000,), reps=300, base_seed=7,
    )
    assert _columns_digest(sample_statistics(cfg, cfg.n_grid, want_ape=False)) == (
        "1a7ccf533aa95a0326c5f10cfa83a112ce242bac2398fb0d9c6c8d8b57807799"
    )


def test_stationary_rows_past_the_ar_loop():
    # burn-in 20 + n 2100 puts each row past linear_process._AR_LOOP_MAX_WIDTH,
    # so ar1_rows writes scipy's lfilter values into its input; 120 reps in
    # tiles of 30 rows
    cfg = ExperimentConfig(
        filter_spec=FilterSpec(family="finite", coeffs=(1.0, 0.5)),
        innovations=InnovationSpec(sigma_omega_sq=1.0, sigma_sq=2.0, pi=0.7),
        beta=0.9, varsigma=0.5, n_grid=(100, 2100), reps=120, base_seed=13,
        statistics=("fpe_stat", "excess_ape"),
    )
    assert _columns_digest(sample_statistics(cfg, cfg.n_grid)) == (
        "12154fe189b002c6be663f8d2b11cbab77521e789567f0d695fb66b9d5e9d748"
    )


@pytest.mark.parametrize(
    "m,reps,digest",
    [
        # every eigenpair drawn, so no grid-m tail
        (64, 600, "e59af38487858ec5c3ed73b9ecb93f878a4e4e4b441c666db02a3ff35356b771"),
        # 64 of 1023 eigenpairs, tails in closed form
        (1024, 2500, "42f47ad69b6855fdd7daed1287e26e0deee6a14ae666b16aa823569a79ffa271"),
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
