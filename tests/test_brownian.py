import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from urlab import (
    BmPath,
    CANONICAL_K1,
    CANONICAL_K2,
    ConfigError,
    FilterSpec,
    InnovationSpec,
    LimitParams,
    ResamplePathError,
    estimate_constants,
    ito_integral,
    limit_sample,
    limit_sample_batch,
    materialize_filter,
    mse_limit_formula,
    time_integral_sq,
)
from urlab import brownian
from urlab.streams import ROLE_BM, ROLE_CONSTANTS, substream

# E[1 / int_0^1 W^2] via the Laplace transform E e^{-sQ} = cosh(sqrt(2s))^{-1/2},
# integrated in closed quadrature (substitution u = sqrt(2s)):
#     int_0^inf u / sqrt(cosh u) du
# Two-digit rounding gives the canonical 5.6.
K2_QUADRATURE = 5.562860342539


def unit_params() -> LimitParams:
    return LimitParams.create(rho=1.0, sigma_omega=1.0, sigma_theta=0.0, theta=1.0)


# ----------------------------------------------------------------- paths

def test_generate_shapes_and_start():
    path = BmPath.generate(16, substream(0, ROLE_BM, 0))
    assert path.m == 16
    assert path.wa[0] == 0.0 and path.wb[0] == 0.0
    assert len(path.wa) == 17 and len(path.dwa) == 16
    assert np.allclose(np.cumsum(path.dwa), path.wa[1:], rtol=0, atol=0)


def test_increment_variance_scales_with_grid():
    path = BmPath.generate(8192, substream(1, ROLE_BM, 0))
    assert path.dwa.var() == pytest.approx(1.0 / 8192, rel=0.1)
    assert abs(float(np.mean(path.dwa * path.dwb))) < 5e-4  # independent components


def test_ito_integral_hand_case():
    # levels (0, 1, -1, 2), increments are their differences
    levels = np.array([0.0, 1.0, -1.0, 2.0])
    inc = np.diff(levels)
    # 0*1 + 1*(-2) + (-1)*3 = -5
    assert ito_integral(levels, inc) == pytest.approx(-5.0, rel=1e-15)
    # (0 + 1 + 1) / 3
    assert time_integral_sq(levels) == pytest.approx(2.0 / 3.0, rel=1e-15)


def test_ito_integral_length_mismatch():
    with pytest.raises(ValueError, match="levels"):
        ito_integral(np.zeros(4), np.zeros(4))


@given(seed=st.integers(0, 2**16), m=st.sampled_from([1, 2, 7, 64, 333]))
@settings(max_examples=60, deadline=None)
def test_discrete_self_integral_identity(seed, m):
    # sum w dw = (w(1)^2 - sum dw^2) / 2 exactly in exact arithmetic
    path = BmPath.generate(m, substream(seed, ROLE_BM, 0))
    lhs = ito_integral(path.wa, path.dwa)
    rhs = 0.5 * (path.wa[-1] ** 2 - float(np.dot(path.dwa, path.dwa)))
    assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)


def test_integral_moments():
    # E int w^2 = 1/2 and E int w dw = 0, each within 4 SE
    reps, m = 20_000, 64
    qs = np.empty(reps)
    itos = np.empty(reps)
    for k in range(reps):
        path = BmPath.generate(m, substream(5, ROLE_BM, k))
        qs[k] = time_integral_sq(path.wa)
        itos[k] = ito_integral(path.wa, path.dwa)
    # left sums under-cover: E = (1/2)(1 - 1/m)... exact mean is (m-1)/(2m)
    target_q = (m - 1) / (2.0 * m)
    assert abs(qs.mean() - target_q) < 4.0 * qs.std(ddof=1) / math.sqrt(reps)
    assert abs(itos.mean()) < 4.0 * itos.std(ddof=1) / math.sqrt(reps)


# --------------------------------------------------------------- params

def test_limit_params_consistency_enforced():
    with pytest.raises(ConfigError, match="sigma"):
        LimitParams(rho=1.0, sigma_omega=1.0, sigma_theta=0.0, sigma=2.0, iota_sq=1.0, lam=1.0)
    with pytest.raises(ConfigError, match="iota_sq"):
        LimitParams(rho=1.0, sigma_omega=1.0, sigma_theta=0.0, sigma=1.0, iota_sq=2.0, lam=1.0)


def test_limit_params_from_model():
    filt = materialize_filter(FilterSpec(family="geometric", a=1.0, r=0.5))
    innov = InnovationSpec(sigma_omega_sq=4.0, sigma_sq=1.0, pi=1.0)
    p = LimitParams.from_model(filt, innov)
    assert p.rho == pytest.approx(0.25)
    assert p.sigma_omega == pytest.approx(2.0)
    assert p.iota_sq == pytest.approx(4.0)  # theta = 2
    assert p.lam == pytest.approx(4.0)
    assert p.sigma == pytest.approx(1.0)


# --------------------------------------------------------------- draws

def test_limit_sample_formula_by_hand():
    path = BmPath.generate(32, substream(2, ROLE_BM, 7))
    p = LimitParams.create(rho=0.6, sigma_omega=1.5, sigma_theta=2.0, theta=0.8)
    q = time_integral_sq(path.wa)
    i_aa = ito_integral(path.wa, path.dwa)
    i_ab = ito_integral(path.wa, path.dwb)
    num = (0.6 * 1.5 * i_aa + 2.0 * i_ab) ** 2
    out = limit_sample(path, p)
    assert out["fpe_limit_draw"] == pytest.approx(path.wa[-1] ** 2 * num / q**2, rel=1e-12)
    assert out["mse_limit_draw"] == pytest.approx(num / (p.lam**2 * q**2), rel=1e-12)


def test_batch_matches_scalar_draws():
    p = unit_params()
    m, reps = 128, 64
    batch = limit_sample_batch(p, m, reps, base_seed=3)
    # the batch draws one stream per fixed-width block; replay it
    rng = substream(3, ROLE_BM, 0)
    z = rng.standard_normal((reps, m, 2)) * math.sqrt(1.0 / m)
    for k in (0, 17, 63):
        dwa, dwb = z[k, :, 0], z[k, :, 1]
        path = BmPath(
            m=m, dwa=dwa, dwb=dwb,
            wa=np.concatenate(([0.0], np.cumsum(dwa))),
            wb=np.concatenate(([0.0], np.cumsum(dwb))),
        )
        out = limit_sample(path, p)
        assert batch["fpe_limit_draw"][k] == pytest.approx(out["fpe_limit_draw"], rel=1e-12)
        assert batch["mse_limit_draw"][k] == pytest.approx(out["mse_limit_draw"], rel=1e-12)


def test_batch_deterministic_and_seed_sensitive():
    p = unit_params()
    a = limit_sample_batch(p, 64, 1000, base_seed=11)
    b = limit_sample_batch(p, 64, 1000, base_seed=11)
    c = limit_sample_batch(p, 64, 1000, base_seed=12)
    assert np.array_equal(a["fpe_limit_draw"], b["fpe_limit_draw"])
    assert np.array_equal(a["mse_limit_draw"], b["mse_limit_draw"])
    assert not np.array_equal(a["fpe_limit_draw"], c["fpe_limit_draw"])
    assert a["resampled"] == 0


def test_resampling_is_bounded(monkeypatch):
    # m = 1 has Q = 0 on every path: no replacement can ever pass the floor
    with pytest.raises(ResamplePathError, match="resamples"):
        limit_sample_batch(unit_params(), 1, 4, base_seed=0)
    monkeypatch.setattr(brownian, "_TIME_INTEGRAL_FLOOR", math.inf)
    with pytest.raises(ResamplePathError, match="resamples"):
        limit_sample_batch(unit_params(), 16, 4, base_seed=0)


def test_both_samplers_redraw_degenerate_paths_alike(monkeypatch):
    # a raised floor flags a few of 200 paths at m = 16 in each sampler; a
    # flagged path is replaced by the first of its (index, attempt) streams
    # that clears the floor
    floor, m, reps, seed = 0.04, 16, 200, 3
    monkeypatch.setattr(brownian, "_TIME_INTEGRAL_FLOOR", floor)
    p = LimitParams.create(rho=0.6, sigma_omega=1.2, sigma_theta=0.7, theta=1.5)

    out = limit_sample_batch(p, m, reps, base_seed=seed)
    z = substream(seed, ROLE_BM, 0).standard_normal((reps, m, 2)) * math.sqrt(1.0 / m)
    redrawn = 0
    for i in range(reps):
        wa, wb = (np.concatenate(([0.0], np.cumsum(z[i, :, j]))) for j in (0, 1))
        path, attempt = BmPath(m, z[i, :, 0], z[i, :, 1], wa, wb), 0
        while time_integral_sq(path.wa) < floor:
            attempt += 1
            assert attempt <= 64
            path = BmPath.generate(m, substream(seed, ROLE_BM, i, attempt))
        redrawn += attempt > 0
        want = limit_sample(path, p)
        for key in ("fpe_limit_draw", "mse_limit_draw"):
            assert out[key][i] == pytest.approx(want[key], rel=1e-12)
    assert out["resampled"] == redrawn > 0

    # constants: a path is redrawn when Q at either grid is under the floor
    def draws(dw):
        lev_f = np.concatenate(([0.0], np.cumsum(dw)))
        grids = ((lev_f[::2], dw[0::2] + dw[1::2]), (lev_f, dw))
        qs = [time_integral_sq(lev) for lev, _ in grids]
        ks = [(ito_integral(lev, inc) / q) ** 2 for (lev, inc), q in zip(grids, qs)]
        return min(qs), (ks[0], 1.0 / qs[0], ks[1], 1.0 / qs[1])

    report = estimate_constants(m=m, reps=reps, base_seed=seed)
    dw = substream(seed, ROLE_CONSTANTS, 0).standard_normal((reps, 2 * m)) * math.sqrt(0.5 / m)
    rows, redrawn = [], 0
    for i in range(reps):
        (q, row), attempt = draws(dw[i]), 0
        while q < floor:
            attempt += 1
            assert attempt <= 64
            rng = substream(seed, ROLE_CONSTANTS, i, attempt)
            q, row = draws(rng.standard_normal(2 * m) * math.sqrt(0.5 / m))
        redrawn += attempt > 0
        rows.append(row)
    assert redrawn > 0
    got = (report.k1, report.k2, report.k1_refined, report.k2_refined)
    for est, want in zip(got, np.mean(rows, axis=0)):
        assert est.value == pytest.approx(want, rel=1e-12)


def test_fpe_draw_mean_near_two_sigma_sq():
    p = unit_params()
    draws = limit_sample_batch(p, 256, 40_000, base_seed=4)["fpe_limit_draw"]
    se = draws.std(ddof=1) / math.sqrt(len(draws))
    assert abs(draws.mean() - 2.0) < max(0.05, 4.0 * se)


def test_mse_draw_scales_with_lambda():
    # same seed, different scale: mse draws divide by lambda^2
    p1 = unit_params()
    p2 = LimitParams.create(rho=1.0, sigma_omega=1.0, sigma_theta=0.0, theta=2.0)
    a = limit_sample_batch(p1, 64, 500, base_seed=6)
    b = limit_sample_batch(p2, 64, 500, base_seed=6)
    assert np.allclose(b["mse_limit_draw"], a["mse_limit_draw"] / 4.0, rtol=1e-12)
    assert np.allclose(b["fpe_limit_draw"], a["fpe_limit_draw"], rtol=1e-12)  # fpe is scale-free here


# ------------------------------------------------------------ constants

def test_constants_near_canonical_values():
    report = estimate_constants(m=1 << 10, reps=20_000, base_seed=0)
    assert abs(report.k1.value - CANONICAL_K1.value) < 0.5 + 4.0 * report.k1.se
    assert abs(report.k2.value - CANONICAL_K2.value) < 0.2 + 4.0 * report.k2.se
    # against the quadrature value the tolerance is discretization + MC
    assert abs(report.k2.value - K2_QUADRATURE) < 0.02 + 4.0 * report.k2.se


def test_constants_deterministic():
    a = estimate_constants(m=256, reps=4000, base_seed=9)
    b = estimate_constants(m=256, reps=4000, base_seed=9)
    assert a.k1.value == b.k1.value
    assert a.k2.value == b.k2.value
    assert a.k1.se == b.k1.se


def test_refinement_gap_shrinks_with_grid():
    coarse = estimate_constants(m=64, reps=30_000, base_seed=14)
    fine = estimate_constants(m=512, reps=30_000, base_seed=14)
    assert fine.k1_gap < coarse.k1_gap
    assert fine.k2_gap < coarse.k2_gap
    # refined estimate sits between the coarse value and the continuum
    assert abs(fine.k2_refined.value - K2_QUADRATURE) < abs(
        coarse.k2.value - K2_QUADRATURE
    )


def test_constants_report_shape():
    report = estimate_constants(m=128, reps=3000, base_seed=2)
    d = report.as_dict()
    assert d["k1"]["name"] == "K1"
    assert d["k1"]["source"] == "estimated"
    assert d["m"] == 128
    assert d["k1_refined"]["m"] == 256
    assert d["k1_gap"] >= 0.0
    assert report.k1.se > 0.0


def test_estimate_constants_validation():
    with pytest.raises(ConfigError):
        estimate_constants(m=1, reps=100)
    with pytest.raises(ConfigError, match="m must be >= 8"):
        estimate_constants(m=4, reps=100)
    with pytest.raises(ConfigError):
        estimate_constants(m=64, reps=1)


# -------------------------------------------------------------- formula

def test_mse_limit_formula_corners():
    assert mse_limit_formula(unit_params()) == pytest.approx(13.3)
    p_indep = LimitParams.create(rho=0.0, sigma_omega=1.0, sigma_theta=1.0, theta=1.0)
    assert mse_limit_formula(p_indep) == pytest.approx(5.6)
    p_half = LimitParams.create(rho=0.5, sigma_omega=1.0, sigma_theta=math.sqrt(0.75), theta=1.0)
    assert mse_limit_formula(p_half) == pytest.approx(0.25 * 13.3 + 0.75 * 5.6)
    # custom constants flow through
    assert mse_limit_formula(unit_params(), k1=10.0, k2=1.0) == pytest.approx(10.0)


def test_mse_limit_formula_scales_with_iota():
    p = LimitParams.create(rho=1.0, sigma_omega=1.0, sigma_theta=0.0, theta=2.0)
    assert mse_limit_formula(p) == pytest.approx(13.3 / 4.0)
