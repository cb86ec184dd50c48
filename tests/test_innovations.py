import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from urlab import ConfigError, InnovationSpec, derived_correlation, draw_pairs
from urlab.innovations import _scaled_pairs, _standardized
from urlab.streams import ROLE_PATH, substream


def test_defaults_are_valid():
    spec = InnovationSpec()
    assert spec.problems() == []


def test_all_violations_reported_together():
    with pytest.raises(ConfigError) as exc:
        InnovationSpec(sigma_omega_sq=-1.0, sigma_sq=0.0, family="cauchy")
    msgs = exc.value.problems
    assert len(msgs) == 3
    assert any("sigma_omega_sq" in m for m in msgs)
    assert any("sigma_sq" in m for m in msgs)
    assert any("family" in m for m in msgs)


def test_cauchy_schwarz_violation_names_the_inequality():
    with pytest.raises(ConfigError, match="Cauchy-Schwarz"):
        InnovationSpec(sigma_omega_sq=1.0, sigma_sq=1.0, pi=1.5)


def test_boundary_pi_survives_rounding():
    # pi = sigma * sigma_omega sits exactly on the bound
    spec = InnovationSpec(sigma_omega_sq=2.0, sigma_sq=3.0, pi=math.sqrt(6.0))
    rho, sigma_theta_sq = derived_correlation(spec)
    assert sigma_theta_sq == 0.0
    assert rho == pytest.approx(math.sqrt(1.5), rel=1e-12)


@pytest.mark.parametrize(
    "sigma_omega_sq,sigma_sq,pi,rho,sigma_theta_sq",
    [
        (1.0, 1.0, 1.0, 1.0, 0.0),
        (1.0, 1.0, 0.5, 0.5, 0.75),
        (1.0, 1.0, 0.0, 0.0, 1.0),
        (4.0, 1.0, 2.0, 0.5, 0.0),
        (1.0, 4.0, 1.0, 1.0, 3.0),
    ],
)
def test_derived_correlation_closed_form(sigma_omega_sq, sigma_sq, pi, rho, sigma_theta_sq):
    got_rho, got_var = derived_correlation(
        InnovationSpec(sigma_omega_sq=sigma_omega_sq, sigma_sq=sigma_sq, pi=pi)
    )
    assert got_rho == pytest.approx(rho, rel=1e-12)
    assert got_var == pytest.approx(sigma_theta_sq, abs=1e-12)


@given(
    so2=st.floats(0.1, 10.0),
    s2=st.floats(0.1, 10.0),
    frac=st.floats(-1.0, 1.0),
)
def test_variance_split_reassembles(so2, s2, frac):
    pi = frac * math.sqrt(s2 * so2)
    spec = InnovationSpec(sigma_omega_sq=so2, sigma_sq=s2, pi=pi)
    rho, sigma_theta_sq = derived_correlation(spec)
    assert sigma_theta_sq >= 0.0
    assert rho**2 * so2 + sigma_theta_sq == pytest.approx(s2, rel=1e-9)


def test_full_correlation_is_exact_multiple():
    # sigma_theta = 0 makes epsilon a bit-exact multiple of omega
    spec = InnovationSpec(sigma_omega_sq=1.0, sigma_sq=4.0, pi=2.0)
    omega, epsilon = draw_pairs(substream(0, ROLE_PATH, 0), spec, 500)
    assert np.array_equal(epsilon, 2.0 * omega)


def test_scalar_loop_matches_vectorized_draws():
    spec = InnovationSpec(sigma_omega_sq=2.0, sigma_sq=3.0, pi=1.0, family="laplace")
    om_v, eps_v = draw_pairs(substream(9, ROLE_PATH, 4), spec, 8)
    rng = substream(9, ROLE_PATH, 4)
    for k in range(8):
        om_s, eps_s = draw_pairs(rng, spec, 1)
        assert om_s[0] == om_v[k]
        assert eps_s[0] == eps_v[k]


@pytest.mark.parametrize("family", ["gaussian", "laplace", "uniform"])
def test_family_moments(family):
    reps = 400_000
    spec = InnovationSpec(sigma_omega_sq=2.0, sigma_sq=1.5, pi=0.8, family=family)
    omega, epsilon = draw_pairs(substream(1, ROLE_PATH, 0), spec, reps)
    se = 1.0 / math.sqrt(reps)
    assert abs(omega.mean()) < 6 * math.sqrt(2.0) * se
    assert abs(omega.var() - 2.0) < 0.05
    assert abs(epsilon.var() - 1.5) < 0.05
    assert abs((omega * epsilon).mean() - 0.8) < 0.05


def test_uniform_standardized_is_unit_variance_and_bounded():
    z = _standardized(substream(2, ROLE_PATH, 0), "uniform", 200_000)
    assert np.max(np.abs(z)) <= math.sqrt(3.0)
    assert z.var() == pytest.approx(1.0, abs=0.01)


def test_epsilon_independent_of_past_omegas():
    # lagged cross-moments vanish: eps_t pairs only with its own omega_t
    spec = InnovationSpec(sigma_omega_sq=1.0, sigma_sq=1.0, pi=0.9)
    omega, epsilon = draw_pairs(substream(3, ROLE_PATH, 0), spec, 300_000)
    for lag in (1, 2, 5):
        cross = float(np.mean(omega[:-lag] * epsilon[lag:]))
        assert abs(cross) < 0.02


def test_batch_engine_and_draw_pairs_share_one_pair_map():
    # the engine maps (rows, steps, 2) standardized draws at once, and
    # draw_pairs one path's (steps, 2); both go through _scaled_pairs
    spec = InnovationSpec(sigma_omega_sq=2.0, sigma_sq=1.5, pi=0.7, family="laplace")
    z = np.stack([_standardized(substream(3, ROLE_PATH, k), spec.family, (50, 2)) for k in range(4)])
    omega, epsilon = _scaled_pairs(spec, z)
    for k in range(4):
        om_k, eps_k = draw_pairs(substream(3, ROLE_PATH, k), spec, 50)
        assert np.array_equal(omega[k], om_k) and np.array_equal(epsilon[k], eps_k)
