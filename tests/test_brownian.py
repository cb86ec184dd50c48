import math
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

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
from urlab import brownian, streams
from urlab.streams import ROLE_BM, ROLE_CONSTANTS, substream

# E[1 / int_0^1 W^2] via the Laplace transform E e^{-sQ} = cosh(sqrt(2s))^{-1/2},
# integrated in closed quadrature (substitution u = sqrt(2s)):
#     int_0^inf u / sqrt(cosh u) du
# Two-digit rounding gives the canonical 5.6.
K2_QUADRATURE = 5.562860342539


def unit_params() -> LimitParams:
    return LimitParams(rho=1.0, sigma_omega=1.0, sigma_theta=0.0, theta=1.0)


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

def test_limit_params_refusals():
    LimitParams(rho=1.0, sigma_omega=1.0, sigma_theta=0.0, theta=1.0)
    with pytest.raises(ConfigError, match=r"theta\^2 must be > 0"):
        LimitParams(rho=1.0, sigma_omega=1.0, sigma_theta=0.0, theta=0.0)
    for sigma_omega in (0.0, -1.0):
        with pytest.raises(ConfigError, match="sigma_omega must be > 0"):
            LimitParams(rho=1.0, sigma_omega=sigma_omega, sigma_theta=0.0, theta=1.0)
    with pytest.raises(ConfigError, match="sigma_theta must be >= 0"):
        LimitParams(rho=1.0, sigma_omega=1.0, sigma_theta=-0.5, theta=1.0)


def test_limit_params_from_model():
    filt = materialize_filter(FilterSpec(family="geometric", a=1.0, r=0.5))
    innov = InnovationSpec(sigma_omega_sq=4.0, sigma_sq=1.0, pi=1.0)
    p = LimitParams.from_model(filt, innov)
    assert p.rho == pytest.approx(0.25)
    assert p.sigma_omega == pytest.approx(2.0)
    assert p.iota_sq == pytest.approx(4.0)  # theta = 2
    assert p.lam == pytest.approx(4.0)


# --------------------------------------------------------------- draws

def test_limit_sample_formula_by_hand():
    path = BmPath.generate(32, substream(2, ROLE_BM, 7))
    p = LimitParams(rho=0.6, sigma_omega=1.5, sigma_theta=2.0, theta=0.8)
    q = time_integral_sq(path.wa)
    i_aa = ito_integral(path.wa, path.dwa)
    i_ab = ito_integral(path.wa, path.dwb)
    num = (0.6 * 1.5 * i_aa + 2.0 * i_ab) ** 2
    out = limit_sample(path, p)
    assert out["fpe_limit_draw"] == pytest.approx(path.wa[-1] ** 2 * num / q**2, rel=1e-12)
    assert out["mse_limit_draw"] == pytest.approx(num / (p.lam**2 * q**2), rel=1e-12)


def walk_basis(m: int) -> np.ndarray:
    """Orthonormal eigenvectors of the grid-m walk's level form L'L, as
    columns in brownian._spectrum's order, each signed to sum to c_j >= 0."""
    k = m - 1
    i, j = np.ogrid[1 : k + 1, 1 : k + 1]
    v = math.sqrt(4 / (2 * k + 1)) * np.sin((2 * j - 1) * (k + 1 - i) * math.pi / (2 * k + 1))
    return v * np.sign(v.sum(axis=0))


def grid_path(m: int, w: np.ndarray, z_m: float, u: float) -> BmPath:
    """The grid-m path whose standardized increments rotate to (w, z_m),
    with a b path whose Ito integral against it is sqrt(Q) u."""
    dwa = np.append(walk_basis(m) @ w, z_m) / math.sqrt(m)
    wa = np.concatenate(([0.0], np.cumsum(dwa)))
    dwb = u * wa[:-1] / (m * math.sqrt(time_integral_sq(wa)))
    return BmPath(m, dwa, dwb, wa, np.concatenate(([0.0], np.cumsum(dwb))))


@pytest.mark.parametrize("m", [2, 8, 16, 65])
def test_spectral_scorer_reproduces_grid_paths(m):
    # with every eigenpair (K = m - 1) the spectral scorer is the grid law:
    # fed a path's increments rotated into the walk's eigenbasis, it gives
    # that path's Q, W(1) and I_aa, and the limit draws given its I_ab
    k = m - 1
    basis = walk_basis(m)
    level_form = (k + 1) - np.maximum.outer(np.arange(1, k + 1), np.arange(1, k + 1))
    a, c, q_tail, x_tail = brownian._spectrum(m, k)
    assert np.allclose(basis.T @ basis, np.eye(k), rtol=0, atol=1e-13)
    assert np.allclose(basis.T @ level_form @ basis, np.diag(a * m**2), rtol=1e-12, atol=1e-10)
    assert np.allclose(basis.sum(axis=0), c, rtol=1e-12, atol=1e-13)
    assert q_tail == x_tail == 0.0
    p = LimitParams(rho=0.6, sigma_omega=1.2, sigma_theta=0.7, theta=1.5)
    zero = np.zeros(1)
    for seed in range(20):
        path = BmPath.generate(m, substream(seed, ROLE_BM, 0))
        z = path.dwa * math.sqrt(m)
        w = (basis.T @ z[:-1])[None, :]
        q, w1, i_aa = brownian._constant_draws(m, w, zero, z[-1:], zero)
        assert q[0] == pytest.approx(time_integral_sq(path.wa), rel=1e-12)
        assert w1[0] == pytest.approx(path.wa[-1], rel=1e-12, abs=1e-12)
        assert i_aa[0] == pytest.approx(ito_integral(path.wa, path.dwa), rel=1e-12, abs=1e-12)
        u = np.array([ito_integral(path.wa, path.dwb) / math.sqrt(q[0])])
        _, draws = brownian._limit_score(p, m, w, zero, zero, z[-1:], u)
        want = limit_sample(path, p)
        # the draws square rho sig_w I_aa + sig_t I_ab, which may cancel
        assert draws[0, 0] == pytest.approx(want["fpe_limit_draw"], rel=1e-9)
        assert draws[1, 0] == pytest.approx(want["mse_limit_draw"], rel=1e-9)


def test_batch_matches_scalar_draws():
    p = unit_params()
    m, reps = 64, 64
    batch = limit_sample_batch(p, m, reps, base_seed=3)
    # one batch: at m = 64 every eigenpair is drawn, so no chi-square tail;
    # the per-path normals (g, z_m, u), then the 63 walk coordinates of
    # each path
    rng = substream(3, ROLE_BM, 0)
    _, z_m, u = rng.standard_normal((3, reps))
    w = rng.standard_normal((reps, m - 1))
    for k in (0, 17, 63):
        out = limit_sample(grid_path(m, w[k], z_m[k], u[k]), p)
        assert batch["fpe_limit_draw"][k] == pytest.approx(out["fpe_limit_draw"], rel=1e-9)
        assert batch["mse_limit_draw"][k] == pytest.approx(out["mse_limit_draw"], rel=1e-9)


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
    # that clears the floor.  At m = 16 every eigenpair is drawn, so the
    # grid-m side is the exact grid path.
    floor, m, reps, seed = 0.04, 16, 200, 3
    monkeypatch.setattr(brownian, "_TIME_INTEGRAL_FLOOR", floor)
    p = LimitParams(rho=0.6, sigma_omega=1.2, sigma_theta=0.7, theta=1.5)

    def limit_path(rng, paths):
        _, z_m, u = rng.standard_normal((3, paths))
        w = rng.standard_normal((paths, m - 1))
        return [grid_path(m, w[i], z_m[i], u[i]) for i in range(paths)]

    out = limit_sample_batch(p, m, reps, base_seed=seed)
    redrawn = 0
    for i, path in enumerate(limit_path(substream(seed, ROLE_BM, 0), reps)):
        attempt = 0
        while time_integral_sq(path.wa) < floor:
            attempt += 1
            assert attempt <= 64
            (path,) = limit_path(substream(seed, ROLE_BM, i, attempt), 1)
        redrawn += attempt > 0
        want = limit_sample(path, p)
        for key in ("fpe_limit_draw", "mse_limit_draw"):
            assert out[key][i] == pytest.approx(want[key], rel=1e-9)
    assert out["resampled"] == redrawn > 0

    # constants: a path is redrawn when Q at either grid is under the floor;
    # the grid-2m side draws its tail: the grid-m tail has 0 degrees, so
    # the fine chi-square is the extra one on m degrees, drawn after g, z_m
    def constant_rows(rng, paths):
        g, z_m = rng.standard_normal((2, paths))
        chi_sq = rng.chisquare(m, paths)
        w = rng.standard_normal((paths, m - 1))
        q_f, _, i_f = brownian._constant_draws(2 * m, w, g, z_m, chi_sq)
        for i in range(paths):
            path = grid_path(m, w[i], z_m[i], 0.0)
            q_c, i_c = time_integral_sq(path.wa), ito_integral(path.wa, path.dwa)
            yield min(q_c, q_f[i]), ((i_c / q_c) ** 2, 1.0 / q_c, (i_f[i] / q_f[i]) ** 2, 1.0 / q_f[i])

    report = estimate_constants(m=m, reps=reps, base_seed=seed)
    rows, redrawn = [], 0
    for i, (q, row) in enumerate(constant_rows(substream(seed, ROLE_CONSTANTS, 0), reps)):
        attempt = 0
        while q < floor:
            attempt += 1
            assert attempt <= 64
            ((q, row),) = constant_rows(substream(seed, ROLE_CONSTANTS, i, attempt), 1)
        redrawn += attempt > 0
        rows.append(row)
    assert report.resampled == redrawn > 0
    got = (report.k1, report.k2, report.k1_refined, report.k2_refined)
    for est, want in zip(got, np.mean(rows, axis=0)):
        assert est.value == pytest.approx(want, rel=1e-9)


@pytest.mark.parametrize("floor", [None, 0.04], ids=["plain", "redraws"])
def test_samplers_equal_bits_in_a_pool(monkeypatch, floor):
    # a batch of 30 paths at grid 16 (19 values each): 200 paths make 7
    # batches in each sampler; the raised floor of the redraw test above
    # flags a few paths in each
    monkeypatch.setattr(brownian, "_BATCH_VALUES", 30 * 19)
    if floor is not None:
        monkeypatch.setattr(brownian, "_TIME_INTEGRAL_FLOOR", floor)
    p = LimitParams(rho=0.6, sigma_omega=1.2, sigma_theta=0.7, theta=1.5)
    solo = limit_sample_batch(p, 16, 200, base_seed=3)
    duo = limit_sample_batch(p, 16, 200, base_seed=3, workers=2)
    for key in ("fpe_limit_draw", "mse_limit_draw"):
        assert duo[key].tobytes() == solo[key].tobytes(), key
    assert duo["resampled"] == solo["resampled"]
    assert (solo["resampled"] > 0) == (floor is not None)
    report = estimate_constants(m=16, reps=200, base_seed=3)
    assert estimate_constants(m=16, reps=200, base_seed=3, workers=2) == report


def test_an_open_pool_takes_even_one_batch(counting_pool):
    # a run hands its pool to every stage; a lone batch goes there too, so
    # the run's own process draws no path
    pool = streams.ProcessPoolExecutor(max_workers=2)  # counting_pool's serial stand-in
    p = LimitParams(rho=0.6, sigma_omega=1.2, sigma_theta=0.7, theta=1.5)
    pooled = limit_sample_batch(p, 16, 10, base_seed=3, workers=pool)
    report = estimate_constants(m=16, reps=10, base_seed=3, workers=pool)
    assert counting_pool == ([2], [1, 1])
    solo = limit_sample_batch(p, 16, 10, base_seed=3, workers=1)
    assert pooled["fpe_limit_draw"].tobytes() == solo["fpe_limit_draw"].tobytes()
    assert report == estimate_constants(m=16, reps=10, base_seed=3, workers=1)
    assert counting_pool == ([2], [1, 1])


def test_threads_of_one_process_do_not_share_tiles(monkeypatch):
    # 4 threads, switching often, run 8 batches of 64 paths at grid 256 (68
    # values each) in tiles of 5 rows (a Brownian tile takes half the tile
    # budget); the draws release the interpreter lock, so threads sharing
    # tile buffers would overwrite each other's paths
    monkeypatch.setattr(brownian, "_BATCH_VALUES", 64 * 68)
    monkeypatch.setattr(streams, "_TILE_VALUES", 5 * 2 * 68)
    p = LimitParams(rho=0.6, sigma_omega=1.2, sigma_theta=0.7, theta=1.5)
    solo = limit_sample_batch(p, 256, 512, base_seed=3, workers=1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            threaded = limit_sample_batch(p, 256, 512, base_seed=3, workers=pool)
    finally:
        sys.setswitchinterval(interval)
    for key in ("fpe_limit_draw", "mse_limit_draw"):
        assert threaded[key].tobytes() == solo[key].tobytes(), key


@pytest.mark.parametrize("floor", [None, 0.04], ids=["plain", "redraws"])
@pytest.mark.parametrize("tile_rows", [1, 7])
def test_tile_size_does_not_change_bits(monkeypatch, floor, tile_rows):
    # batches of 30 paths at grid 16 (19 values each) are one tile by
    # default; tiles of one row, or of 7 rows, which do not divide 30, must
    # give the same bytes, redrawn paths included
    monkeypatch.setattr(brownian, "_BATCH_VALUES", 30 * 19)
    if floor is not None:
        monkeypatch.setattr(brownian, "_TIME_INTEGRAL_FLOOR", floor)
    p = LimitParams(rho=0.6, sigma_omega=1.2, sigma_theta=0.7, theta=1.5)
    whole = limit_sample_batch(p, 16, 200, base_seed=3, workers=1)
    report = estimate_constants(m=16, reps=200, base_seed=3, workers=1)
    monkeypatch.setattr(streams, "_TILE_VALUES", tile_rows * 2 * 19)
    tiled = limit_sample_batch(p, 16, 200, base_seed=3, workers=1)
    for key in ("fpe_limit_draw", "mse_limit_draw"):
        assert tiled[key].tobytes() == whole[key].tobytes(), key
    assert tiled["resampled"] == whole["resampled"]
    assert (whole["resampled"] > 0) == (floor is not None)
    assert estimate_constants(m=16, reps=200, base_seed=3, workers=1) == report


def test_fpe_draw_mean_near_two_sigma_sq():
    p = unit_params()
    draws = limit_sample_batch(p, 256, 40_000, base_seed=4)["fpe_limit_draw"]
    se = draws.std(ddof=1) / math.sqrt(len(draws))
    assert abs(draws.mean() - 2.0) < max(0.05, 4.0 * se)


def test_mse_draw_scales_with_lambda():
    # same seed, different scale: mse draws divide by lambda^2
    p1 = unit_params()
    p2 = LimitParams(rho=1.0, sigma_omega=1.0, sigma_theta=0.0, theta=2.0)
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


def exact_k2(m: int) -> float:
    """K2 at grid m from the walk's full spectrum: with Q = sum_j a_j w_j^2,
    E[1/Q] = int_0^inf prod_j (1 + 2 t a_j)^(-1/2) dt, taken over log t."""
    from scipy import integrate

    a = brownian._spectrum(m, m - 1)[0]
    integrand = lambda u: math.exp(u - 0.5 * np.log1p(2.0 * math.exp(u) * a).sum())
    return integrate.quad(integrand, -40.0, 40.0, epsabs=0.0, epsrel=1e-12, limit=400)[0]


def test_exact_grid_k2():
    assert exact_k2(8) == pytest.approx(7.037551, abs=1e-6)
    assert exact_k2(64) == pytest.approx(5.658654, abs=1e-6)
    assert exact_k2(4096) == pytest.approx(5.564220565, abs=1e-9)


@pytest.mark.parametrize("m", [64, 4096])
def test_constants_k2_within_3_se_of_the_exact_grid_value(m):
    # at m = 64 every eigenpair is drawn; at 4096 the first 64, tails closed
    report = estimate_constants(m=m, reps=200_000, base_seed=0, workers=1)
    assert abs(report.k2.value - exact_k2(m)) < 3.0 * report.k2.se


def test_import_loads_no_scipy_and_builds_no_spectrum():
    code = (
        "import sys, urlab\n"
        "print(sorted(n for n in sys.modules if n.partition('.')[0] == 'scipy'),"
        " urlab.brownian._spectrum.cache_info().currsize)"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["[]", "0"]


def test_constants_report_shape():
    report = estimate_constants(m=128, reps=3000, base_seed=2)
    d = report.as_dict()
    assert d["k1"]["name"] == "K1"
    assert d["k1"]["source"] == "estimated"
    assert d["m"] == 128
    assert d["k1_refined"]["m"] == 256
    assert d["k1_gap"] >= 0.0
    assert d["resampled"] == 0
    assert report.k1.se > 0.0


def test_estimate_constants_validation():
    with pytest.raises(ConfigError):
        estimate_constants(m=1, reps=100)
    with pytest.raises(ConfigError, match="m must be >= 8"):
        estimate_constants(m=4, reps=100)
    with pytest.raises(ConfigError):
        estimate_constants(m=64, reps=1)


@pytest.mark.parametrize("m,reps,problem", [
    (0, 4, "m must be >= 1, got 0"),
    (-3, 4, "m must be >= 1, got -3"),
    (16, 0, "reps must be >= 1, got 0"),
    (16, -2, "reps must be >= 1, got -2"),
])
def test_limit_sample_batch_refuses_bad_sizes(m, reps, problem):
    with pytest.raises(ConfigError, match=problem):
        limit_sample_batch(unit_params(), m, reps, base_seed=0)


# -------------------------------------------------------------- formula

def test_mse_limit_formula_corners():
    assert mse_limit_formula(unit_params()) == pytest.approx(13.3)
    p_indep = LimitParams(rho=0.0, sigma_omega=1.0, sigma_theta=1.0, theta=1.0)
    assert mse_limit_formula(p_indep) == pytest.approx(5.6)
    p_half = LimitParams(rho=0.5, sigma_omega=1.0, sigma_theta=math.sqrt(0.75), theta=1.0)
    assert mse_limit_formula(p_half) == pytest.approx(0.25 * 13.3 + 0.75 * 5.6)
    # custom constants flow through
    assert mse_limit_formula(unit_params(), k1=10.0, k2=1.0) == pytest.approx(10.0)


def test_mse_limit_formula_scales_with_iota():
    p = LimitParams(rho=1.0, sigma_omega=1.0, sigma_theta=0.0, theta=2.0)
    assert mse_limit_formula(p) == pytest.approx(13.3 / 4.0)
