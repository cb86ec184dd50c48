import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import special

from urlab import (
    ConfigError,
    ExperimentConfig,
    FilterSpec,
    InnovationSpec,
    LimitParams,
    ReconstructionError,
    decompose,
    generate_path,
    materialize_filter,
    sample_statistics,
    stationary_burn_in,
)
from urlab.streams import ROLE_PATH, substream

RANDOM_WALK = FilterSpec(family="finite", coeffs=(1.0,))
FULL_CORR = InnovationSpec(sigma_omega_sq=1.0, sigma_sq=1.0, pi=1.0)


# ---------------------------------------------------------------- filters

def test_finite_filter_closed_forms():
    filt = materialize_filter(FilterSpec(family="finite", coeffs=(1.0, 2.0, -0.5)))
    assert filt.theta == pytest.approx(2.5, rel=1e-15)
    assert filt.lag == 2
    assert filt.tails == pytest.approx([1.5, -0.5, 0.0], abs=1e-15)
    assert filt.tail_bound == 0.0
    params = LimitParams.from_model(filt, InnovationSpec(sigma_omega_sq=4.0, sigma_sq=4.0))
    assert params.iota_sq == pytest.approx(6.25)
    assert params.lam == pytest.approx(5.0)


def test_geometric_filter_closed_forms():
    filt = materialize_filter(FilterSpec(family="geometric", a=1.0, r=0.5))
    assert filt.theta == pytest.approx(2.0, rel=1e-15)
    # for a=1, r=1/2 the tail after j equals the coefficient at j
    assert np.allclose(filt.tails, filt.coeffs, rtol=1e-12)
    assert filt.tail_bound <= filt.spec.tail_tol * abs(filt.theta)
    # the chosen lag is minimal: one step shorter would violate the bound
    lag = filt.lag
    assert 0.5**lag / 0.5 > filt.spec.tail_tol * 2.0  # tail(lag-1) too big


def test_polynomial_filter_closed_forms():
    filt = materialize_filter(FilterSpec(family="polynomial", a=2.0, p=3.0))
    assert filt.theta == pytest.approx(2.0 * special.zeta(3.0, 1), rel=1e-14)
    assert filt.coeffs[0] == 2.0
    assert filt.coeffs[3] == pytest.approx(2.0 / 64.0)
    assert filt.tails[0] == pytest.approx(2.0 * special.zeta(3.0, 2), rel=1e-14)
    assert filt.tail_bound <= filt.spec.tail_tol * abs(filt.theta)


def test_truncation_lag_lower_bound_honored():
    filt = materialize_filter(FilterSpec(family="geometric", a=1.0, r=0.1, truncation_lag=50))
    assert filt.lag >= 50


def test_materialized_filter_is_shared_and_read_only():
    filt = materialize_filter(FilterSpec(family="geometric", a=1.0, r=0.5))
    assert materialize_filter(FilterSpec(family="geometric", a=1.0, r=0.5)) is filt
    for values in (filt.coeffs, filt.tails):
        with pytest.raises(ValueError, match="read-only"):
            values[0] = 0.0


def test_filter_validation_messages():
    with pytest.raises(ConfigError, match="not absolutely summable"):
        FilterSpec(family="geometric", a=1.0, r=1.0)
    with pytest.raises(ConfigError, match="p > 2"):
        FilterSpec(family="polynomial", a=1.0, p=2.0)
    with pytest.raises(ConfigError, match="non-empty coeffs"):
        FilterSpec(family="finite")
    with pytest.raises(ConfigError, match="sums to zero"):
        materialize_filter(FilterSpec(family="finite", coeffs=(1.0, -1.0)))


def test_truncated_partial_sums_match_taps():
    filt = materialize_filter(FilterSpec(family="geometric", a=2.0, r=-0.6))
    theta_t, tails_t = filt.truncated_partial_sums()
    assert theta_t == pytest.approx(float(np.sum(filt.coeffs)), rel=1e-14)
    assert abs(theta_t - filt.theta) <= filt.tail_bound * 1.000001
    assert tails_t[-1] == 0.0


# ---------------------------------------------------------------- paths

def test_random_walk_identity_bitwise():
    # beta=1 with epsilon == omega makes each response equal the next level:
    # the pair (x_j, y) stores y = x_j + eps, and eps is the same draw that
    # the walk absorbs as its next increment
    filt = materialize_filter(RANDOM_WALK)
    traj = generate_path(filt, FULL_CORR, 1.0, 300, substream(0, ROLE_PATH, 0))
    assert traj.x[0] == 0.0
    assert np.array_equal(traj.x[1:], np.cumsum(traj.eta))
    assert np.array_equal(traj.y[:-1], traj.x[2:])
    assert traj.epsilon[:-1].tolist() == traj.omega[1:].tolist()
    assert traj.y[-1] == traj.x[-1] + traj.epsilon[-1]


def test_shapes_and_alignment():
    filt = materialize_filter(FilterSpec(family="finite", coeffs=(0.5, 0.25)))
    innov = InnovationSpec(sigma_omega_sq=1.0, sigma_sq=2.0, pi=0.3)
    n = 47
    traj = generate_path(filt, innov, -0.7, n, substream(5, ROLE_PATH, 1))
    assert traj.n == n
    assert len(traj.x) == n + 1
    assert len(traj.y) == len(traj.omega) == len(traj.epsilon) == len(traj.eta) == n
    # y_{t} = beta x_{t-1} + eps_t, t = 2..n+1
    assert traj.y == pytest.approx(-0.7 * traj.x[1:] + traj.epsilon, rel=1e-15)


def test_first_increment_uses_only_first_tap():
    # no pre-sample omegas: eta_1 = c_0 omega_1 exactly
    filt = materialize_filter(FilterSpec(family="finite", coeffs=(0.7, 9.0, -3.0)))
    innov = InnovationSpec(sigma_omega_sq=1.0, sigma_sq=1.0, pi=0.0)
    traj = generate_path(filt, innov, 1.0, 20, substream(8, ROLE_PATH, 0))
    assert traj.eta[0] == pytest.approx(0.7 * traj.omega[0], rel=1e-15)
    assert traj.eta[1] == pytest.approx(0.7 * traj.omega[1] + 9.0 * traj.omega[0], rel=1e-15)


def test_path_too_short_rejected():
    filt = materialize_filter(RANDOM_WALK)
    with pytest.raises(ConfigError, match="n >= 2"):
        generate_path(filt, FULL_CORR, 1.0, 1, substream(0, ROLE_PATH, 0))


def test_stationary_burn_in_schedule():
    assert stationary_burn_in(1.0) == 0
    assert stationary_burn_in(0.0) == 10
    assert stationary_burn_in(0.5) == 20
    assert stationary_burn_in(-0.5) == 20
    assert stationary_burn_in(0.9) == 100


def test_stationary_mode_variance():
    # AR(1) with varsigma=0.5 on white eta: var(x) = 1/(1 - 0.25)
    filt = materialize_filter(RANDOM_WALK)
    innov = InnovationSpec(sigma_omega_sq=1.0, sigma_sq=1.0, pi=0.0)
    acc = []
    for rep in range(200):
        traj = generate_path(filt, innov, 1.0, 500, substream(4, ROLE_PATH, rep), varsigma=0.5)
        acc.append(float(np.mean(traj.x[1:] ** 2)))
    assert np.mean(acc) == pytest.approx(1.0 / 0.75, abs=0.03)


def test_varsigma_validation():
    filt = materialize_filter(RANDOM_WALK)
    with pytest.raises(ConfigError, match="varsigma"):
        generate_path(filt, FULL_CORR, 1.0, 10, substream(0, ROLE_PATH, 0), varsigma=1.5)


# ------------------------------------------------------------ decompose

@pytest.mark.parametrize(
    "spec",
    [
        RANDOM_WALK,
        FilterSpec(family="finite", coeffs=(1.0, 2.0, -0.5, 0.25)),
        FilterSpec(family="geometric", a=1.0, r=0.5),
        FilterSpec(family="geometric", a=-2.0, r=-0.85),
        FilterSpec(family="polynomial", a=1.0, p=2.5),
    ],
)
def test_walk_plus_remainder_reconstructs_path(spec):
    filt = materialize_filter(spec)
    innov = InnovationSpec(sigma_omega_sq=2.0, sigma_sq=1.0, pi=0.5)
    traj = generate_path(filt, innov, 1.0, 400, substream(7, ROLE_PATH, 3))
    nmat, smat = decompose(traj, filt)
    scale = max(1.0, float(np.max(np.abs(traj.x))))
    assert np.max(np.abs(nmat - smat - traj.x[1:])) <= 1e-10 * scale


def test_decompose_rejects_mismatched_filter():
    filt = materialize_filter(RANDOM_WALK)
    other = materialize_filter(FilterSpec(family="finite", coeffs=(1.0, 5.0)))
    traj = generate_path(filt, FULL_CORR, 1.0, 100, substream(7, ROLE_PATH, 0))
    with pytest.raises(ReconstructionError):
        decompose(traj, other)


@given(
    coeffs=st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=6).filter(
        lambda c: abs(sum(c)) > 1e-3
    ),
    seed=st.integers(0, 2**20),
)
@settings(max_examples=40, deadline=None)
def test_reconstruction_property(coeffs, seed):
    filt = materialize_filter(FilterSpec(family="finite", coeffs=tuple(coeffs)))
    traj = generate_path(filt, FULL_CORR, 1.0, 60, substream(seed, ROLE_PATH, 0))
    nmat, smat = decompose(traj, filt)
    scale = max(1.0, float(np.max(np.abs(traj.x))))
    assert np.max(np.abs(nmat - smat - traj.x[1:])) <= 1e-10 * scale


# ---------------------------------------------------------- diagnostics

def test_log_fisher_bounded_on_unit_root_paths():
    cfg = ExperimentConfig(
        filter_spec=RANDOM_WALK, innovations=FULL_CORR, n_grid=(2000,), reps=50,
        base_seed=13, statistics=("log_fisher",),
    )
    diffs = sample_statistics(cfg, (2000,), want_ape=False)[2000]["log_fisher"]
    # centered growth: log energy tracks 2 log n up to an O(1) spread
    assert abs(float(np.median(diffs))) < 3.0
