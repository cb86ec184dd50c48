"""End-to-end verification of every numerical target the laboratory makes.

Each criterion gets one test and one summary line in the terminal report.
These run at full scale (a few minutes total on one core); the unit
modules cover the same machinery at small scale.
"""

import io
import math
import os

import numpy as np
import pytest

from urlab import (
    ExperimentConfig,
    FilterSpec,
    InnovationSpec,
    LimitParams,
    RlsState,
    ape_slope,
    cross_moment,
    decompose,
    estimate_constants,
    generate_path,
    ito_integral,
    limit_distribution_check,
    limit_sample_batch,
    materialize_filter,
    run,
    run_path,
    sample_statistics,
    stationary_comparison,
)
from urlab.brownian import BmPath
from urlab.cli import Targets, dispatch
from urlab.streams import ROLE_BM, ROLE_PATH, substream

RANDOM_WALK = FilterSpec(family="finite", coeffs=(1.0,))
FULL_CORR = InnovationSpec(sigma_omega_sq=1.0, sigma_sq=1.0, pi=1.0)
# the Brownian samplers' batches run over every core, with equal bits
WORKERS = len(os.sched_getaffinity(0))


def _line(record, idx, label, body, ok):
    record(f"criterion {idx} ({label}): {body} -> {'pass' if ok else 'FAIL'}")
    return ok


# --------------------------------------------------- 1: fpe constant

def test_criterion_1_fpe_constant(acceptance_report):
    cfg = ExperimentConfig(
        filter_spec=RANDOM_WALK,
        innovations=FULL_CORR,
        beta=1.0,
        n_grid=(2000,),
        reps=20_000,
        base_seed=0,
        statistics=("fpe_stat",),
    )
    s = run(cfg)[0]
    band = max(0.1, 4.0 * s.mc_se)
    ok = abs(s.mean - 2.0) <= band
    assert _line(
        acceptance_report, 1, "fpe constant",
        f"mean={s.mean:.4f} se={s.mc_se:.4f} band={band:.4f} target=2.0", ok,
    )


# -------------------------------------- 2: filter/correlation invariance

def test_criterion_2_fpe_invariance(acceptance_report):
    intervals = {}
    for rho in (0.0, 0.5, 1.0):
        cfg = ExperimentConfig(
            filter_spec=FilterSpec(family="geometric", a=1.0, r=0.5),
            innovations=InnovationSpec(sigma_omega_sq=1.0, sigma_sq=1.0, pi=rho),
            beta=1.0,
            n_grid=(2000,),
            reps=20_000,
            base_seed=0,
            statistics=("fpe_stat",),
        )
        s = run(cfg)[0]
        intervals[rho] = (s.mean - 4.0 * s.mc_se, s.mean + 4.0 * s.mc_se)
    covers = all(lo <= 2.0 <= hi for lo, hi in intervals.values())
    pairs = [(0.0, 0.5), (0.0, 1.0), (0.5, 1.0)]
    overlaps = all(
        intervals[a][0] <= intervals[b][1] and intervals[b][0] <= intervals[a][1]
        for a, b in pairs
    )
    body = " ".join(
        f"rho={r:g}:[{lo:.3f},{hi:.3f}]" for r, (lo, hi) in intervals.items()
    )
    ok = covers and overlaps
    assert _line(acceptance_report, 2, "fpe invariance", body, ok)


# ------------------------------------------------------- 3: ape slope

def test_criterion_3_ape_slope(acceptance_report):
    results = []
    for sigma_sq, pi, lo, hi in ((1.0, 1.0, 1.7, 2.3), (4.0, 2.0, 6.8, 9.2)):
        cfg = ExperimentConfig(
            filter_spec=RANDOM_WALK,
            innovations=InnovationSpec(sigma_omega_sq=1.0, sigma_sq=sigma_sq, pi=pi),
            beta=1.0,
            n_grid=(500, 2000, 8000, 32000),
            reps=5000,
            base_seed=3,
            statistics=("excess_ape",),
        )
        slope = ape_slope(run(cfg))
        results.append((sigma_sq, slope, lo, hi, lo <= slope <= hi))
    body = "; ".join(
        f"sigma_sq={s:g} slope={sl:.3f} in [{lo:g},{hi:g}]"
        for s, sl, lo, hi, _ in results
    )
    ok = all(r[4] for r in results)
    assert _line(acceptance_report, 3, "ape slope", body, ok)


# ------------------------------------------------ 4: limit constants

def test_criterion_4_limit_constants(acceptance_report):
    rep = estimate_constants(m=1 << 12, reps=200_000, base_seed=0, workers=WORKERS)
    k1, k2 = rep.k1, rep.k2
    ok = (
        abs(k1.value - 13.3) <= 0.5
        and k1.se <= 0.15
        and abs(k2.value - 5.6) <= 0.2
        and k2.se <= 0.05
    )
    assert _line(
        acceptance_report, 4, "limit constants",
        f"k1={k1.value:.3f} se={k1.se:.3f} (13.3+-0.5, se<=0.15); "
        f"k2={k2.value:.3f} se={k2.se:.3f} (5.6+-0.2, se<=0.05)", ok,
    )


# ---------------------------------------------- 5 + 6 shared samples

MSE_TARGETS = {0.0: 5.6, 0.5: 7.525, 1.0: 13.3}


@pytest.fixture(scope="module")
def rho_moments():
    out = {}
    for rho in (0.0, 0.5, 1.0):
        cfg = ExperimentConfig(
            filter_spec=RANDOM_WALK,
            innovations=InnovationSpec(sigma_omega_sq=1.0, sigma_sq=1.0, pi=rho),
            beta=1.0,
            n_grid=(4000,),
            reps=20_000,
            base_seed=0,
            statistics=("fpe_stat", "norm_est_sq", "x_n_sq_over_n"),
        )
        out[rho] = cross_moment(cfg)
    return out


def test_criterion_5_mse_limit(acceptance_report, rho_moments):
    parts, ok = [], True
    for rho, target in MSE_TARGETS.items():
        cm = rho_moments[rho]
        mean, se = cm["mean_norm_est_sq"], cm["se_norm_est_sq"]
        band = max(0.7, 4.0 * se)
        ok = ok and abs(mean - target) <= band
        parts.append(f"rho={rho:g}: {mean:.3f} vs {target:g} band={band:.3f}")
    assert _line(acceptance_report, 5, "mse limit", "; ".join(parts), ok)


def test_criterion_6_cross_moment(acceptance_report, rho_moments):
    parts, ok = [], True
    for rho, cm in rho_moments.items():
        prod_target = 5.6 + 7.7 * rho**2
        joint_ok = abs(cm["joint"] - 2.0) <= max(0.1, 4.0 * cm["joint_se"])
        prod_ok = abs(cm["product"] - prod_target) <= max(0.7, 4.0 * cm["product_se"])
        corr_ok = cm["corr"] < 0.0 and abs(cm["corr"]) > 4.0 * cm["corr_se"]
        ok = ok and joint_ok and prod_ok and corr_ok
        parts.append(
            f"rho={rho:g}: joint={cm['joint']:.3f} product={cm['product']:.3f}"
            f"/{prod_target:g} corr={cm['corr']:.3f}"
        )
    assert _line(acceptance_report, 6, "cross moment", "; ".join(parts), ok)


# ------------------------------------------------ 7: stationary contrast

def test_criterion_7_stationary_contrast(acceptance_report):
    cfg = ExperimentConfig(
        filter_spec=RANDOM_WALK,
        innovations=FULL_CORR,
        beta=1.0,
        varsigma=0.5,
        n_grid=(4000,),
        reps=20_000,
        base_seed=29,
        statistics=("fpe_stat",),
    )
    sc = stationary_comparison(cfg)
    joint_ok = abs(sc["joint"] - 1.0) <= max(0.05, 4.0 * sc["joint_se"])
    prod_ok = abs(sc["product"] - 1.0) <= max(0.05, 4.0 * sc["product_se"])
    diff_ok = abs(sc["diff"]) <= 4.0 * sc["diff_se"]
    ok = joint_ok and prod_ok and diff_ok
    assert _line(
        acceptance_report, 7, "stationary contrast",
        f"joint={sc['joint']:.4f} product={sc['product']:.4f} "
        f"diff={sc['diff']:.4f}+-{4.0 * sc['diff_se']:.4f}", ok,
    )


# -------------------------------------------------- 8: property suite

def _check_ape_identity_and_recursion():
    filt = materialize_filter(RANDOM_WALK)
    innov = InnovationSpec(sigma_omega_sq=1.0, sigma_sq=2.0, pi=0.5)
    traj = generate_path(filt, innov, 1.3, 500, substream(11, ROLE_PATH, 0))
    stats = run_path(traj)
    # the recursion sees pairs (x_i, y_{i+1}) for i = 1..n-1 only
    x, y = traj.x[1:-1], traj.y[:-1]
    c_xx = np.cumsum(x * x)
    c_xy = np.cumsum(x * y)
    terms = []
    state = RlsState()
    recursion_ok = True
    for i in range(len(x)):
        if i > 0 and c_xx[i - 1] > 0.0:
            terms.append((y[i] - x[i] * c_xy[i - 1] / c_xx[i - 1]) ** 2)
        state.update(x[i], y[i])
        if state.started:
            batch = c_xy[i] / c_xx[i]
            recursion_ok = recursion_ok and (
                abs(state.beta_hat - batch) <= 1e-10 * max(1.0, abs(batch))
            )
    batch_ape = math.fsum(terms)
    ape_ok = abs(stats.ape - batch_ape) <= 1e-10 * max(1.0, batch_ape)
    return ape_ok, recursion_ok, traj


def _check_equivariance(traj):
    k = 3.0
    base, scaled = RlsState(), RlsState()
    for x_i, y_next in zip(traj.x[1:], traj.y):
        base.update(x_i, y_next)
        scaled.update(k * x_i, y_next)
    rel = 1e-10
    slope_ok = abs(scaled.beta_hat * k - base.beta_hat) <= rel * abs(base.beta_hat)
    p_base = base.predict(traj.x[-1])
    p_scaled = scaled.predict(k * traj.x[-1])
    return slope_ok and abs(p_scaled - p_base) <= rel * max(1.0, abs(p_base))


def _check_ito_identity():
    rng = substream(8, ROLE_BM, 0)
    for _ in range(200):
        path = BmPath.generate(256, rng)
        lhs = ito_integral(path.wa, path.dwa)
        rhs = 0.5 * (path.wa[-1] ** 2 - float(np.dot(path.dwa, path.dwa)))
        if abs(lhs - rhs) > 1e-12 * max(1.0, abs(rhs)):
            return False
    return True


def _check_reconstruction():
    filt = materialize_filter(FilterSpec(family="geometric", a=1.0, r=0.5))
    innov = InnovationSpec(sigma_omega_sq=1.0, sigma_sq=1.0, pi=0.3)
    traj = generate_path(filt, innov, 1.0, 2000, substream(12, ROLE_PATH, 0))
    nmat, smat = decompose(traj, filt)
    resid = float(np.max(np.abs(nmat - smat - traj.x[1:])))
    return resid <= 1e-10 * max(1.0, float(np.max(np.abs(traj.x))))


def _check_bm_moments():
    m, reps = 512, 20_000
    rng = substream(8, ROLE_BM, 1)
    dw = rng.standard_normal((reps, m)) * math.sqrt(1.0 / m)
    lev = np.concatenate((np.zeros((reps, 1)), np.cumsum(dw, axis=1)), axis=1)
    q = np.einsum("ij,ij->i", lev[:, :-1], lev[:, :-1]) / m
    self_int = 0.5 * (lev[:, -1] ** 2 - np.einsum("ij,ij->i", dw, dw))
    q_se = float(np.std(q, ddof=1)) / math.sqrt(reps)
    s_se = float(np.std(self_int, ddof=1)) / math.sqrt(reps)
    return (
        abs(float(np.mean(q)) - 0.5) <= 4.0 * q_se
        and abs(float(np.mean(self_int))) <= 4.0 * s_se
    )


def _check_manifest_determinism(tmp_path):
    cfg = ExperimentConfig(
        filter_spec=RANDOM_WALK,
        innovations=FULL_CORR,
        beta=1.0,
        n_grid=(200,),
        reps=400,
        base_seed=5,
        statistics=("fpe_stat",),
    )
    manifests = []
    for sub in ("a", "b"):
        _, man = dispatch(
            "fpe", cfg, Targets(fpe_floor=0.5),
            out_dir=str(tmp_path / sub), stream=io.StringIO(),
        )
        manifests.append(man.artifacts)
    return manifests[0] == manifests[1] and len(manifests[0]) > 0


def test_criterion_8_property_suite(acceptance_report, tmp_path):
    ape_ok, recursion_ok, traj = _check_ape_identity_and_recursion()
    checks = {
        "ape-identity": ape_ok,
        "batch-vs-recursive": recursion_ok,
        "ito-identity": _check_ito_identity(),
        "reconstruction": _check_reconstruction(),
        "bm-moments": _check_bm_moments(),
        "scale-equivariance": _check_equivariance(traj),
        "manifest-determinism": _check_manifest_determinism(tmp_path),
    }
    failed = [name for name, good in checks.items() if not good]
    body = f"{len(checks) - len(failed)}/{len(checks)} checks"
    if failed:
        body += " failed: " + ", ".join(failed)
    assert _line(acceptance_report, 8, "property suite", body, not failed)


# ---------------------------------------------- 9: weak convergence

def test_criterion_9_weak_convergence(acceptance_report):
    cfg = ExperimentConfig(
        filter_spec=RANDOM_WALK,
        innovations=FULL_CORR,
        beta=1.0,
        n_grid=(50, 4000),
        reps=10_000,
        base_seed=23,
        statistics=("fpe_stat",),
    )
    near = sample_statistics(cfg, (4000,))[4000]["fpe_stat"]
    far = sample_statistics(cfg, (50,))[50]["fpe_stat"]
    params = LimitParams.from_model(materialize_filter(RANDOM_WALK), FULL_CORR)
    draws = limit_sample_batch(params, 1 << 12, 10_000, 17, workers=WORKERS)["fpe_limit_draw"]
    ks_near = limit_distribution_check(near, draws)
    ks_far = limit_distribution_check(far, draws)
    ok = ks_near <= 0.03 and ks_near < ks_far
    assert _line(
        acceptance_report, 9, "weak convergence",
        f"ks(n=4000)={ks_near:.4f} <= 0.03 and < ks(n=50)={ks_far:.4f}", ok,
    )
