import dataclasses
import decimal
import inspect
import math
import os
import re
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from urlab import (
    ConfigError,
    DegeneratePathError,
    ExperimentConfig,
    FilterSpec,
    InnovationSpec,
    ape_slope,
    cross_moment,
    generate_path,
    limit_distribution_check,
    materialize_filter,
    run,
    run_path,
    sample_statistics,
    stationary_comparison,
)
from urlab import brownian, monte_carlo, streams
from urlab.linear_process import stationary_burn_in
from urlab.monte_carlo import McSummary, _two_sample_ks
from urlab.streams import ROLE_PATH, substream

RANDOM_WALK = FilterSpec(family="finite", coeffs=(1.0,))
FULL_CORR = InnovationSpec(sigma_omega_sq=1.0, sigma_sq=1.0, pi=1.0)
README_FILTER = FilterSpec(family="geometric", a=1.0, r=0.5)  # 27 taps
# 12 leading zero taps against varsigma 0's burn-in of 10: x_1 and x_2 are
# 0 on every path, so pair 3 makes the first estimate and pair 4 is scored
LEAD_FILTER = FilterSpec(family="finite", coeffs=(0.0,) * 12 + (1.0, 0.3))
# every column sample_statistics derives, and all but excess_ape: APE is
# drawn only for the first
WITH_APE = tuple(monte_carlo._COLUMNS)
NO_APE = tuple(c for c in WITH_APE if c != "excess_ape")


def config(**kw) -> ExperimentConfig:
    base = dict(
        filter_spec=RANDOM_WALK,
        innovations=FULL_CORR,
        beta=1.0,
        n_grid=(100,),
        reps=200,
        base_seed=0,
        statistics=("fpe_stat",),
    )
    base.update(kw)
    return ExperimentConfig(**base)


# ----------------------------------------------------------- validation

def test_config_collects_all_problems():
    with pytest.raises(ConfigError) as exc:
        config(
            reps=1, n_grid=(100, 50), statistics=("fpe_stat", "nope"), varsigma=2.0, base_seed=-1
        )
    msgs = exc.value.problems
    assert len(msgs) == 5
    assert any("reps" in m for m in msgs)
    assert any("base_seed must be >= 0" in m for m in msgs)
    assert any("strictly increasing" in m for m in msgs)
    assert any("nope" in m for m in msgs)
    assert any("varsigma" in m for m in msgs)


def test_config_rejects_tiny_n():
    with pytest.raises(ConfigError, match="n must be >= 3"):
        config(n_grid=(2,))


@pytest.mark.parametrize("n_grid", [[50.5], (50.5,), [50.0, 100], (50.0, 100)])
def test_config_refuses_a_non_integral_n(n_grid):
    with pytest.raises(ConfigError, match="n_grid must be a tuple of integers"):
        config(n_grid=n_grid)


def test_config_refuses_non_integral_counts():
    with pytest.raises(ConfigError) as exc:
        config(reps=100.0, base_seed=1.5)
    assert exc.value.problems == [
        "reps must be an integer, got 100.0",
        "base_seed must be an integer, got 1.5",
    ]
    # no comparison of a string with a number escapes as a TypeError
    with pytest.raises(ConfigError, match="reps must be an integer, got '5'"):
        config(reps="5")


@pytest.mark.parametrize("n_grid", [[np.int64(50), 100], (np.int32(50), np.uint16(100))])
def test_config_stores_integer_types_as_int(n_grid):
    cfg = config(n_grid=n_grid, reps=np.int64(200), base_seed=np.uint32(3))
    assert cfg.n_grid == (50, 100) and cfg.reps == 200 and cfg.base_seed == 3
    assert {type(v) for v in (*cfg.n_grid, cfg.reps, cfg.base_seed)} == {int}


# ---------------------------------------------------------- determinism

def test_run_is_deterministic():
    cfg = config(statistics=("fpe_stat", "excess_ape"), reps=300)
    assert run(cfg) == run(cfg)


def _tile_width(cfg) -> int:
    """Values a tile row holds per draw: its path in whole filter blocks."""
    steps = stationary_burn_in(cfg.varsigma) + cfg.n_grid[-1] + 1
    return -(-steps // monte_carlo._BLOCK) * monte_carlo._BLOCK


CHUNKING_CASES = {
    # 27 taps: a path at n = 20 is shorter than the filter, and one step block
    "short-pass": dict(filter_spec=README_FILTER, n_grid=(20, 60),
                       innovations=InnovationSpec(sigma_omega_sq=2.0, sigma_sq=1.0, pi=0.5)),
    "laplace-stationary": dict(filter_spec=FilterSpec(family="finite", coeffs=(1.0, -0.4, 0.1)),
                               innovations=InnovationSpec(pi=0.3, family="laplace"),
                               varsigma=0.5, n_grid=(30, 60)),
    # uniform innovations: bounded draws, read through _standardized
    "uniform-retries": dict(innovations=InnovationSpec(pi=0.6, family="uniform"),
                            n_grid=(30, 60)),
    "stationary-lead": dict(filter_spec=LEAD_FILTER, varsigma=0.0, n_grid=(5, 30, 60)),
}


@pytest.mark.parametrize("tile_rows", [None, 1, 3])
@pytest.mark.parametrize("case", sorted(CHUNKING_CASES))
def test_arrays_independent_of_chunking(monkeypatch, case, tile_rows):
    cfg = config(reps=130, statistics=("fpe_stat", "excess_ape"), **CHUNKING_CASES[case])
    # one block in one tile
    base = sample_statistics(cfg, cfg.n_grid, workers=1)
    # blocks of 17 rows, in tiles of 17, 1 or 3 rows (17 = 5 * 3 + 2)
    monkeypatch.setattr(monte_carlo, "_CHUNK", 17)
    if tile_rows is not None:
        monkeypatch.setattr(streams, "_TILE_VALUES", 2 * _tile_width(cfg) * tile_rows)
    chunked = sample_statistics(cfg, cfg.n_grid, workers=1)
    for n, cols in base.items():
        assert cols.keys() == chunked[n].keys()
        for key, col in cols.items():
            assert chunked[n][key].tobytes() == col.tobytes(), (n, key)


def test_threads_of_one_process_do_not_share_tile_buffers(monkeypatch):
    # 4 threads, switching often, run 8 blocks of 20 replications in tiles
    # of 3 rows; the draws release the interpreter lock, so threads sharing
    # tile buffers would overwrite each other's paths
    monkeypatch.setattr(monte_carlo, "_CHUNK", 20)
    cfg = config(reps=160, n_grid=(30, 60), statistics=("fpe_stat", "excess_ape"))
    monkeypatch.setattr(streams, "_TILE_VALUES", 3 * 2 * _tile_width(cfg))
    solo = sample_statistics(cfg, cfg.n_grid, workers=1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            threaded = sample_statistics(cfg, cfg.n_grid, workers=pool)
    finally:
        sys.setswitchinterval(interval)
    for n, cols in solo.items():
        for key, col in cols.items():
            assert threaded[n][key].tobytes() == col.tobytes(), (n, key)


def _first_call_peak(call):
    streams._thread_buffers.cache_clear()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_first_call_allocates_about_a_tile_not_a_block():
    # criterion 3's widest path; with whole blocks of 65 rows this peaked
    # at 80 MiB, and tiles of 2 rows in one set of buffers take about 4 MiB
    cfg = config(filter_spec=README_FILTER, n_grid=(500, 32000), reps=64,
                 innovations=InnovationSpec(sigma_omega_sq=1.0, sigma_sq=1.0, pi=0.5),
                 statistics=("fpe_stat", "excess_ape"))
    assert _first_call_peak(lambda: sample_statistics(cfg, cfg.n_grid, workers=1)) < 16 * 2**20


def test_first_call_scores_each_tile_in_four_float_planes():
    # the same call: two tile rows of 32001 steps, in the draw tile and
    # two float planes (about 2.3 MiB); seven planes peaked at 3.8 MiB
    cfg = config(filter_spec=README_FILTER, n_grid=(500, 32000), reps=64,
                 innovations=InnovationSpec(sigma_omega_sq=1.0, sigma_sq=1.0, pi=0.5),
                 statistics=("fpe_stat", "excess_ape"))
    assert _first_call_peak(lambda: sample_statistics(cfg, cfg.n_grid, workers=1)) < 3 * 2**20


BROWNIAN_FIRST_CALLS = {
    "constants": lambda: brownian.estimate_constants(m=4096, reps=600, workers=1),
    "limit": lambda: brownian.limit_sample_batch(
        brownian.LimitParams(rho=0.6, sigma_omega=1.2, sigma_theta=0.7, theta=1.5),
        4096, 600, base_seed=0, workers=1),
}


@pytest.mark.parametrize("sampler", sorted(BROWNIAN_FIRST_CALLS))
def test_brownian_first_call_allocates_about_a_tile_not_a_batch(sampler):
    # criterion 4's grid: a path draws 68 values whatever m, so 600 paths
    # are one tile of their 64 walk coordinates, and the call peaks at
    # about 0.4 MiB; a whole batch of 30840 paths is 16 MiB of draws
    assert _first_call_peak(BROWNIAN_FIRST_CALLS[sampler]) < 8 * 2**20


def test_arrays_independent_of_worker_count(monkeypatch):
    monkeypatch.setattr(monte_carlo, "_CHUNK", 40)
    cfg = config(reps=120, n_grid=(50,))
    solo = sample_statistics(cfg, (50,), workers=1)[50]
    duo = sample_statistics(cfg, (50,), workers=2)[50]
    for key in ("fpe_stat", "norm_est_sq"):
        assert np.array_equal(solo[key], duo[key])


def test_pool_opens_no_more_workers_than_chunks(monkeypatch, counting_pool):
    monkeypatch.setattr(monte_carlo, "_CHUNK", 40)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)))
    cfg = config(reps=100, n_grid=(50,))
    solo = sample_statistics(cfg, (50,), workers=1)[50]
    pooled = sample_statistics(cfg, (50,), workers=64)[50]
    assert counting_pool[0] == [3]
    for key, col in solo.items():
        assert pooled[key].tobytes() == col.tobytes(), key


def test_pool_opens_no_more_workers_than_usable_cores(monkeypatch, counting_pool):
    # 64 workers, 3 blocks and 2 cores: a pool forks all its processes up
    # front, so more than the cores would only idle
    monkeypatch.setattr(monte_carlo, "_CHUNK", 40)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(2)))
    cfg = config(reps=100, n_grid=(50,))
    sample_statistics(cfg, (50,), workers=64)
    assert counting_pool[0] == [2]


def test_seed_changes_results():
    a = sample_statistics(config(base_seed=1), (100,))[100]
    b = sample_statistics(config(base_seed=2), (100,))[100]
    assert not np.array_equal(a["fpe_stat"], b["fpe_stat"])


# ------------------------------------------- grid points share one pass

GRID_CASES = [
    # 27 taps: n = 5 and 20 are shorter than the filter and its first step
    # block, which they share with the longer paths
    (FilterSpec(family="geometric", a=1.0, r=0.5),
     InnovationSpec(sigma_omega_sq=2.0, sigma_sq=1.0, pi=0.5), 1.0),
    (FilterSpec(family="finite", coeffs=(1.0, -0.4, 0.1)),
     InnovationSpec(sigma_omega_sq=1.0, sigma_sq=1.0, pi=0.0, family="laplace"), 1.0),
    (RANDOM_WALK,
     InnovationSpec(sigma_omega_sq=1.0, sigma_sq=1.0, pi=0.3, family="uniform"), 0.5),
    (LEAD_FILTER, InnovationSpec(sigma_omega_sq=1.5, sigma_sq=1.0, pi=-0.6), 0.0),
]


def _assert_grid_matches_points(cfg, **kwargs):
    together = sample_statistics(cfg, cfg.n_grid, **kwargs)
    assert list(together) == list(cfg.n_grid)
    for n in cfg.n_grid:
        alone = sample_statistics(dataclasses.replace(cfg, n_grid=(n,)), (n,), **kwargs)[n]
        assert together[n].keys() == alone.keys()
        for key, col in alone.items():
            assert together[n][key].tobytes() == col.tobytes(), (n, key)
    return together


@pytest.mark.parametrize("columns", [WITH_APE, NO_APE], ids=["ape", "no_ape"])
@pytest.mark.parametrize("filter_spec,innov,varsigma", GRID_CASES)
def test_grid_points_equal_single_point_bits(filter_spec, innov, varsigma, columns):
    cfg = ExperimentConfig(
        filter_spec=filter_spec, innovations=innov, beta=0.8, varsigma=varsigma,
        n_grid=(5, 20, 60, 300), reps=150, base_seed=11,
    )
    _assert_grid_matches_points(cfg, columns=columns)


@pytest.mark.parametrize("varsigma", [0.5, -0.9])
def test_grid_points_equal_single_point_bits_on_long_stationary_rows(varsigma):
    # the grid's rows span at least 64 blocks, so the scan of their block
    # ends takes 5 (varsigma 0.5, where phi^32 is subnormal) or 7 doubling
    # steps; n = 60 alone spans 3 or 5 blocks, one or two steps
    n_max = 2100
    assert stationary_burn_in(varsigma) + n_max >= 64 * monte_carlo._BLOCK
    cfg = config(reps=40, n_grid=(60, n_max), varsigma=varsigma, base_seed=3)
    _assert_grid_matches_points(cfg, columns=WITH_APE)


def test_grid_points_equal_single_point_bits_in_a_pool(monkeypatch):
    monkeypatch.setattr(monte_carlo, "_CHUNK", 40)
    cfg = config(reps=120, n_grid=(30, 90, 200), statistics=("excess_ape",))
    pooled = _assert_grid_matches_points(cfg, workers=2)
    solo = sample_statistics(cfg, cfg.n_grid)
    for n in cfg.n_grid:
        for key, col in solo[n].items():
            assert pooled[n][key].tobytes() == col.tobytes(), (n, key)


# ------------------------------------------------- engine vs scalar path

def _assert_engine_matches_scalar(filter_spec, innov, varsigma, n, reps):
    cfg = ExperimentConfig(
        filter_spec=filter_spec, innovations=innov, beta=0.8, varsigma=varsigma,
        n_grid=(n,), reps=reps, base_seed=77, statistics=("excess_ape",),
    )
    arrays = sample_statistics(cfg, (n,))[n]
    filt = materialize_filter(filter_spec)
    for rep in range(reps):
        rng = substream(77, ROLE_PATH, rep)
        traj = generate_path(filt, innov, 0.8, n, rng, varsigma=varsigma)
        ref = dataclasses.asdict(run_path(traj))
        for key in ("fpe_stat", "norm_est_sq", "x_n_sq_over_n", "excess_ape"):
            assert arrays[key][rep] == pytest.approx(ref[key], rel=1e-10, abs=1e-12), (rep, key)


@pytest.mark.parametrize(
    "filter_spec,innov,varsigma",
    [
        (RANDOM_WALK, FULL_CORR, 1.0),
        (FilterSpec(family="geometric", a=1.0, r=0.5),
         InnovationSpec(sigma_omega_sq=2.0, sigma_sq=1.0, pi=0.5), 1.0),
        (FilterSpec(family="finite", coeffs=(1.0, -0.4, 0.1)),
         InnovationSpec(sigma_omega_sq=1.0, sigma_sq=1.0, pi=0.0, family="laplace"), 1.0),
        (RANDOM_WALK,
         InnovationSpec(sigma_omega_sq=1.0, sigma_sq=1.0, pi=0.3, family="uniform"), 0.5),
    ],
)
def test_engine_matches_scalar_reference(filter_spec, innov, varsigma):
    _assert_engine_matches_scalar(filter_spec, innov, varsigma, n=150, reps=30)


@pytest.mark.parametrize(
    "filter_spec,n,reps",
    [
        # 625 step blocks, so drift in the carries across blocks would show
        (README_FILTER, 20000, 6),
        # 135170 taps, of which a path reads its first 300
        (FilterSpec(family="polynomial", a=1.0, p=2.5), 300, 10),
        # x_1 = 0 on every path, so no estimate predicts the second pair
        (FilterSpec(family="finite", coeffs=(0.0, 1.0)), 150, 30),
    ],
    ids=["readme-20000", "polynomial-300", "leading-zero-tap"],
)
def test_engine_matches_scalar_reference_on_more_shapes(filter_spec, n, reps):
    innov = InnovationSpec(sigma_omega_sq=2.0, sigma_sq=1.0, pi=0.5)
    _assert_engine_matches_scalar(filter_spec, innov, 1.0, n, reps)


def _excess_ape_to_50_digits(traj) -> float:
    """Sum of t (t - 2 eps_{i+1}), t = d x_i, over the scored pairs i of a
    scalar path, d being the estimate before pair i, in 50-digit decimals."""
    with decimal.localcontext(decimal.Context(prec=50)):
        x = [decimal.Decimal(float(v)) for v in traj.x]
        eps = [decimal.Decimal(float(v)) for v in traj.epsilon]
        s_xx = s_xe = total = decimal.Decimal(0)
        for i in range(1, traj.n):
            if s_xx > 0:
                t = s_xe / s_xx * x[i]
                total += t * (t - 2 * eps[i - 1])
            s_xx += x[i] * x[i]
            s_xe += x[i] * eps[i - 1]
        return float(total)


def test_excess_ape_is_accurate_to_rounding():
    # the README config: each path's excess APE, of order log n, to within
    # a few rounding errors of its own size; ape - sse, two sums of order
    # n, was off by up to 2.4e-14 relative here
    n, reps = 2000, 10
    innov = InnovationSpec(pi=0.5)
    cfg = config(filter_spec=README_FILTER, innovations=innov, n_grid=(n,), reps=reps,
                 base_seed=7, statistics=("excess_ape",))
    got = sample_statistics(cfg, (n,))[n]["excess_ape"]
    filt = materialize_filter(README_FILTER)
    want = np.array([
        _excess_ape_to_50_digits(generate_path(filt, innov, 1.0, n, substream(7, ROLE_PATH, rep)))
        for rep in range(reps)
    ])
    assert np.max(np.abs(got - want) / np.abs(want)) < 4e-15


@pytest.mark.parametrize(
    "kw",
    [
        dict(filter_spec=README_FILTER, innovations=InnovationSpec(pi=0.5)),
        dict(filter_spec=FilterSpec(family="finite", coeffs=(1.0, -0.4, 0.1)), varsigma=0.5,
             innovations=InnovationSpec(pi=0.3, family="laplace")),
    ],
    ids=["readme-unit-root", "laplace-stationary"],
)
def test_columns_do_not_depend_on_ape(kw):
    # the running sums run only for APE; every other column is the same
    cfg = config(n_grid=(40, 300), reps=200, **kw)
    with_ape = sample_statistics(cfg, cfg.n_grid, WITH_APE)
    without = sample_statistics(cfg, cfg.n_grid, NO_APE)
    for n, cols in without.items():
        assert set(cols) < set(with_ape[n])
        for key, col in cols.items():
            assert with_ape[n][key].tobytes() == col.tobytes(), (n, key)


def test_every_blas_product_has_one_shape(monkeypatch):
    # numpy sends a one-row product to gemv, which sums in another order, so
    # one shape for every product keeps a row's bits independent of its tile
    shapes = set()

    class RecordingNumpy:
        def __getattr__(self, name):
            return getattr(np, name)

        @staticmethod
        def matmul(a, b, out):
            shapes.add((a.shape[1:], b.shape, a.flags.c_contiguous and out.flags.c_contiguous))
            return np.matmul(a, b, out=out)

    monkeypatch.setattr(monte_carlo, "np", RecordingNumpy())
    forty = FilterSpec(family="finite", coeffs=tuple(0.9**j for j in range(40)))
    for spec, varsigma in ((README_FILTER, 1.0), (forty, 0.5)):
        cfg = config(filter_spec=spec, varsigma=varsigma, n_grid=(5, 20, 60, 300), reps=20,
                     statistics=("excess_ape",))
        for tile_rows in (1, 3):
            monkeypatch.setattr(streams, "_TILE_VALUES", 2 * _tile_width(cfg) * tile_rows)
            sample_statistics(cfg, cfg.n_grid, workers=1)
    assert shapes == {((16, 32), (32, 32), True)}


def test_fpe_column_is_exact_product():
    arrays = sample_statistics(config(reps=500), (100,))[100]
    assert np.array_equal(
        arrays["fpe_stat"], arrays["x_n_sq_over_n"] * arrays["norm_est_sq"]
    )


# ------------------------------------------------------------ summaries

def test_summary_fields_and_ratios():
    cfg = config(
        reps=400, n_grid=(50, 200),
        statistics=("fpe_stat", "excess_ape", "norm_est_sq", "x_n_sq_over_n"),
    )
    summaries = run(cfg)
    assert len(summaries) == 8
    by = {(s.statistic, s.n): s for s in summaries}
    s = by[("fpe_stat", 200)]
    assert s.reps == 400 and s.seed == 0
    assert s.ratio == pytest.approx(s.mean / 2.0)
    # excess_ape has no finite mean at any n, so no target to divide by
    assert by[("excess_ape", 50)].ratio is None and by[("excess_ape", 200)].ratio is None
    assert by[("x_n_sq_over_n", 200)].ratio == pytest.approx(
        by[("x_n_sq_over_n", 200)].mean
    )  # lambda^2 = 1 for the plain walk
    assert by[("norm_est_sq", 200)].ratio == pytest.approx(
        by[("norm_est_sq", 200)].mean / 13.3
    )


def test_limit_target_is_n_free_with_the_fpe_constant_in_both_regimes():
    assert list(inspect.signature(monte_carlo.limit_target).parameters) == ["config", "statistic"]
    unit_root = config(innovations=InnovationSpec(sigma_omega_sq=1.0, sigma_sq=3.0, pi=1.0))
    stationary = dataclasses.replace(unit_root, varsigma=0.5)
    assert monte_carlo.limit_target(unit_root, "fpe_stat") == 6.0
    assert monte_carlo.limit_target(stationary, "fpe_stat") == 3.0
    assert monte_carlo.limit_target(unit_root, "excess_ape") is None
    for statistic in ("excess_ape", "norm_est_sq", "x_n_sq_over_n"):
        assert monte_carlo.limit_target(stationary, statistic) is None


def test_mc_se_suppressed_for_tiny_runs():
    summaries = run(config(reps=10, n_grid=(30,)))
    assert summaries[0].mc_se is None
    summaries = run(config(reps=30, n_grid=(30,)))
    assert summaries[0].mc_se is not None


# ----------------------------------------------------- degenerate paths

def _zero_omega(monkeypatch, pick, steps=slice(None)):
    """Make the engine draw omega = 0 at ``steps`` of the rows ``pick``
    selects from their draws, so that its own degenerate test fires."""
    draws = monte_carlo._draws

    def zeroed(streams, family, z):
        z = draws(streams, family, z)
        z[pick(z), steps, 0] = 0.0
        return z

    monkeypatch.setattr(monte_carlo, "_draws", zeroed)


def test_unscoreable_model_aborts(monkeypatch):
    # certain aborts are refused at parse, so draw omega = 0 on every row
    _zero_omega(monkeypatch, lambda z: slice(None))
    with pytest.raises(DegeneratePathError, match="^path 0: x_1\\^2 is 0, so no estimate "
                       "exists to predict pair 2$"):
        sample_statistics(config(reps=100, n_grid=(3,)), (3,))


@pytest.mark.parametrize("columns", [("fpe_stat", "fpe"), ()], ids=["unknown", "none"])
def test_a_column_off_the_menu_is_refused_before_any_draw(monkeypatch, columns):
    def never(*args):
        raise AssertionError("drew a path")

    monkeypatch.setattr(monte_carlo, "_draws", never)
    with pytest.raises(ValueError, match=f"columns must name some of {re.escape(str(WITH_APE))}"):
        sample_statistics(config(), (100,), columns, workers=1)


def test_first_degenerate_path_ends_the_run(monkeypatch):
    # blocks of 17 rows in tiles of 3; omega = 0 on the rows whose first
    # omega exceeds 1.2, about 1 in 9: the error names the lowest such
    # replication, whatever the tiles or workers
    monkeypatch.setattr(monte_carlo, "_CHUNK", 17)
    cfg = config(reps=120, n_grid=(20, 60))
    monkeypatch.setattr(streams, "_TILE_VALUES", 2 * _tile_width(cfg) * 3)
    filt = materialize_filter(RANDOM_WALK)
    first = next(rep for rep in range(cfg.reps) if generate_path(
        filt, FULL_CORR, 1.0, 20, substream(0, ROLE_PATH, rep)).x[1] > 1.2)
    assert first > 0
    _zero_omega(monkeypatch, lambda z: z[:, 0, 0] > 1.2)
    for workers in (1, 2):
        with pytest.raises(DegeneratePathError, match=f"^path {first}: x_1\\^2 is 0,"):
            sample_statistics(cfg, cfg.n_grid, workers=workers)


def test_path_with_x_1_zero_ends_the_run(monkeypatch):
    # omega_1 = 0 on replication 5 alone, so its x_1 is 0 and its x_2 is
    # not: the first estimate would come one pair late, on this row only
    cfg = config(reps=40, n_grid=(10, 50), statistics=("excess_ape",))
    omega_1 = generate_path(materialize_filter(RANDOM_WALK), FULL_CORR, 1.0, 10,
                            substream(0, ROLE_PATH, 5)).omega[0]
    _zero_omega(monkeypatch, lambda z: z[:, 0, 0] == omega_1, steps=0)
    with pytest.raises(DegeneratePathError, match="^path 5: x_1\\^2 is 0,"):
        sample_statistics(cfg, cfg.n_grid, workers=1)


@pytest.mark.parametrize(
    "coeffs,varsigma,n_ok",
    [
        ((0.0, 1.0), 1.0, 4),  # first tap 0: x_1 is 0, x_2 is not
        ((0.0,) * 25 + (1.0,), 0.5, 8),  # 25 zero taps against a burn-in of 20
    ],
)
def test_certain_abort_refused_at_parse(coeffs, varsigma, n_ok):
    spec = FilterSpec(family="finite", coeffs=coeffs)
    with pytest.raises(ConfigError, match=f"n = {n_ok - 1} can score no prediction"):
        config(filter_spec=spec, varsigma=varsigma, n_grid=(n_ok - 1, 100))
    cols = sample_statistics(config(filter_spec=spec, varsigma=varsigma, n_grid=(n_ok,)), (n_ok,))
    assert np.all(np.isfinite(cols[n_ok]["fpe_stat"]))


# ------------------------------------------------------------- ape_slope

def test_ape_slope_recovers_exact_line():
    mk = lambda n, mean: McSummary("excess_ape", n, mean, 0.1, 100, 0, None)
    summaries = [mk(n, 3.0 + 2.5 * math.log(n)) for n in (100, 400, 1600, 6400)]
    assert ape_slope(summaries) == pytest.approx(2.5, rel=1e-10)


def test_ape_slope_needs_three_points():
    mk = lambda n: McSummary("excess_ape", n, 1.0, 0.1, 100, 0, None)
    with pytest.raises(ValueError, match=">= 3"):
        ape_slope([mk(100), mk(200)])


def test_ape_slope_small_scale_run():
    cfg = config(
        statistics=("excess_ape",), reps=2000, n_grid=(500, 2000, 8000), base_seed=3
    )
    slope = ape_slope(run(cfg))
    assert 1.5 < slope < 2.5


# ------------------------------------------------------- cross moments

def test_cross_moment_requires_unit_root():
    with pytest.raises(ConfigError, match="unit-root"):
        cross_moment(config(varsigma=0.5))


def test_stationary_comparison_requires_stationary():
    with pytest.raises(ConfigError, match="varsigma"):
        stationary_comparison(config())


def test_cross_moment_joint_equals_mean_fpe():
    cfg = config(reps=3000, n_grid=(500,))
    out = cross_moment(cfg)
    arrays = sample_statistics(cfg, (500,))[500]
    assert out["joint"] == float(np.sum(arrays["fpe_stat"]) / 3000)
    assert out["n"] == 500 and out["reps"] == 3000
    assert out["corr"] < 0.0


def test_cross_moment_marginal_matches_walk_variance():
    # geometric(1, 0.5): lambda^2 = (sigma_omega * theta)^2 = 4
    cfg = ExperimentConfig(
        filter_spec=FilterSpec(family="geometric", a=1.0, r=0.5),
        innovations=InnovationSpec(sigma_omega_sq=1.0, sigma_sq=1.0, pi=0.0),
        beta=1.0, n_grid=(2000,), reps=4000, base_seed=19, statistics=("fpe_stat",),
    )
    out = cross_moment(cfg)
    assert abs(out["mean_x_n_sq_over_n"] - 4.0) < 4.0 * out["se_x_n_sq_over_n"] + 0.2


def test_stationary_moments_near_sigma_sq():
    cfg = config(
        innovations=InnovationSpec(sigma_omega_sq=1.0, sigma_sq=1.0, pi=0.0),
        varsigma=0.5, reps=4000, n_grid=(1000,), base_seed=29,
    )
    out = stationary_comparison(cfg)
    assert abs(out["joint"] - 1.0) < max(0.1, 4.0 * out["joint_se"])
    assert abs(out["product"] - 1.0) < max(0.1, 4.0 * out["product_se"])
    assert abs(out["diff"]) < 4.0 * out["diff_se"] + 0.05


# ------------------------------------------------------------------- KS

@given(
    a=st.lists(st.floats(-5, 5), min_size=2, max_size=60),
    b=st.lists(st.floats(-5, 5), min_size=2, max_size=60),
)
@settings(max_examples=80, deadline=None)
def test_ks_matches_scipy(a, b):
    ours = _two_sample_ks(np.array(a), np.array(b))
    ref = stats.ks_2samp(a, b, method="asymp").statistic
    assert ours == pytest.approx(ref, abs=1e-12)


def test_ks_with_ties_across_samples():
    a = np.array([1.0, 2.0, 2.0, 3.0])
    b = np.array([2.0, 2.0, 4.0])
    assert _two_sample_ks(a, b) == pytest.approx(
        stats.ks_2samp(a, b, method="asymp").statistic, abs=1e-12
    )


def test_identical_samples_have_zero_distance():
    a = np.array([0.5, 1.5, -2.0, 3.0] * 300)
    assert limit_distribution_check(a, a.copy()) == 0.0


def test_limit_check_requires_enough_samples():
    with pytest.raises(ValueError, match=">= 1000"):
        limit_distribution_check(np.zeros(999), np.zeros(2000))


# ------------------------------------------------- asymptotic invariants

def test_fpe_deviation_monotone_on_median():
    # bias ~ c/n dominates MC noise on this grid at these reps
    medians = []
    for n in (8, 64, 512):
        devs = []
        for seed in range(100, 105):
            cfg = config(base_seed=seed, reps=25_000, n_grid=(n,))
            mean = float(np.mean(sample_statistics(cfg, (n,))[n]["fpe_stat"]))
            devs.append(abs(mean - 2.0))
        medians.append(float(np.median(devs)))
    assert medians[0] > medians[1] > medians[2]


def test_fpe_limit_is_filter_free():
    # same normalization target for very different filters
    specs = [
        RANDOM_WALK,
        FilterSpec(family="geometric", a=1.0, r=0.5),
        FilterSpec(family="polynomial", a=1.0, p=3.0),
    ]
    intervals = []
    for spec in specs:
        cfg = ExperimentConfig(
            filter_spec=spec, innovations=FULL_CORR, beta=1.0,
            n_grid=(1000,), reps=4000, base_seed=41, statistics=("fpe_stat",),
        )
        s = run(cfg)[0]
        intervals.append((s.mean - 4 * s.mc_se, s.mean + 4 * s.mc_se))
    for lo, hi in intervals:
        assert lo <= 2.0 <= hi
    for lo, hi in intervals:
        for lo2, hi2 in intervals:
            assert lo <= hi2 and lo2 <= hi
