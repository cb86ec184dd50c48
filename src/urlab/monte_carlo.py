"""Replicated finite-n experiments over sample-size grids.

The engine vectorizes across replications in fixed-size batches while
keeping one keyed stream per replication, so every per-path statistic is
bit-identical no matter the worker count, batch shape, or completion
order.  Aggregation happens once, on assembled full-length arrays, to
keep reductions deterministic too.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import brownian
from .errors import ConfigError, DegenerateRateError, Validated
from .innovations import InnovationSpec, _standardized, derived_correlation
from .linear_process import (
    Filter,
    FilterSpec,
    ar1_rows,
    fir_rows,
    materialize_filter,
    stationary_burn_in,
)
# substream, the per-key reference, stays importable here for bench/layertrace.py
from .streams import ROLE_PATH, substream, substreams  # noqa: F401

STATISTICS = (
    "excess_ape",
    "fpe_stat",
    "norm_est_sq",
    "x_n_sq_over_n",
    "log_fisher",
)

_CHUNK = 4096        # replications per deterministic work unit
_ROW_VALUES = 1 << 22  # float budget per generation batch

MAX_FAILURE_RATE = 1e-3
KS_MIN_SAMPLES = 1000  # per side of limit_distribution_check

# Every gate of the finite-n checks, in one place: check -> (mode, reps
# floor, n_grid points floor), each floor (minimum, what for) or None.  The
# limits a check compares against hold only in its mode.
NEEDS = {
    "fpe": ("unit-root", None, None),
    "ape-curve": ("unit-root", None, (3, "points to fit a slope")),
    "mse": ("unit-root", None, None),
    # the correlation's se divides by sqrt(reps - 3)
    "cross-moment": ("unit-root", (4, "for the correlation's se"), None),
    "stationary": ("stationary", None, None),
    "limit-check": ("unit-root", (KS_MIN_SAMPLES, "finite-n draws"), None),
}
_SET_MODE = {"unit-root": "set varsigma = 1", "stationary": "set |varsigma| < 1"}


def require(config: ExperimentConfig, check: str) -> None:
    """Raise one ConfigError when ``config`` cannot run ``check`` of NEEDS."""
    mode, reps, points = NEEDS[check]
    if mode != ("unit-root" if config.varsigma == 1.0 else "stationary"):
        raise ConfigError([f"{check} compares against {mode} limits; {_SET_MODE[mode]}"])
    floors = (("reps", config.reps, reps), ("n_grid with", len(config.n_grid), points))
    for what, have, floor in floors:
        if floor and have < floor[0]:
            raise ConfigError([f"{check} needs {what} >= {floor[0]} {floor[1]}, got {have}"])


def __getattr__(name):
    # scipy.signal, which the engine calls only through ar1_rows on long
    # stationary rows, stays reachable here for bench/layertrace.py;
    # importing it only when asked for keeps its slow import off urlab's
    # start-up
    if name == "signal":
        from scipy import signal

        return signal
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass(frozen=True)
class ExperimentConfig(Validated):
    """Model plus experiment layout for one run."""

    filter_spec: FilterSpec
    innovations: InnovationSpec
    beta: float = 1.0
    varsigma: float = 1.0
    n_grid: tuple[int, ...] = (500,)
    reps: int = 1000
    base_seed: int = 0
    statistics: tuple[str, ...] = ("fpe_stat",)
    out_dir: str | None = None

    def problems(self) -> list[str]:
        out = []
        if self.reps < 2:
            out.append(f"reps must be >= 2, got {self.reps}")
        if self.base_seed < 0:
            out.append(f"base_seed must be >= 0, got {self.base_seed}")
        grid = tuple(self.n_grid)
        if not grid:
            out.append("n_grid must be non-empty")
        else:
            if any(n < 3 for n in grid):
                out.append(f"every n must be >= 3 (shorter paths score nothing), got {grid}")
            if any(b <= a for a, b in zip(grid, grid[1:])):
                out.append(f"n_grid must be strictly increasing, got {grid}")
        if not (abs(self.varsigma) < 1.0 or self.varsigma == 1.0):
            out.append(
                f"varsigma must be 1 (unit root) or |varsigma| < 1 (stationary), got {self.varsigma}"
            )
        elif grid and min(grid) >= 3:
            out += self._certain_abort(min(grid))
        unknown = [s for s in self.statistics if s not in STATISTICS]
        if unknown:
            out.append(f"unknown statistics {unknown}; menu is {STATISTICS}")
        if not self.statistics:
            out.append("statistics must name at least one entry")
        return out

    def _certain_abort(self, n: int) -> list[str]:
        """A path at n scores nothing when the filter's leading zero taps
        keep every regressor before the final pair at exactly 0: x_1 ..
        x_{n-2} (after any burn-in) see no innovation at all."""
        try:
            coeffs = materialize_filter(self.filter_spec).coeffs
        except ConfigError as exc:
            return exc.problems
        zeros = int(np.flatnonzero(coeffs)[0])
        burn = stationary_burn_in(self.varsigma)
        if burn + n > zeros + 2:
            return []
        return [
            f"n = {n} can score no prediction: with {zeros} leading zero filter taps, "
            f"burn-in + n must exceed {zeros + 2}, got {burn + n}"
        ]

    def __post_init__(self):
        if not isinstance(self.n_grid, tuple):
            object.__setattr__(self, "n_grid", tuple(int(n) for n in self.n_grid))
        if not isinstance(self.statistics, tuple):
            object.__setattr__(self, "statistics", tuple(self.statistics))
        super().__post_init__()


@dataclass(frozen=True)
class McSummary:
    """Aggregate of one statistic at one sample size."""

    statistic: str
    n: int
    mean: float
    mc_se: float | None  # reported only when reps >= 30
    reps: int
    seed: int
    ratio: float | None  # mean over its asymptotic target, when one exists


def _degenerate_mask(u: np.ndarray) -> np.ndarray:
    """Rows on which no prediction can ever be scored.

    A path is usable only if some regressor before the final pair is
    nonzero; otherwise the estimate either never exists or exists too
    late to predict anything.
    """
    return ~np.any(u[:, :-1] != 0.0, axis=1)


def _draws(config: ExperimentConfig, reps: np.ndarray, attempt: int, total: int) -> np.ndarray:
    """Standardized (omega, theta) draws, one keyed stream per replication."""
    z = np.empty((len(reps), total, 2))
    streams = substreams(config.base_seed, ROLE_PATH, reps, attempt)
    for k, rng in enumerate(streams):
        z[k] = _standardized(rng, config.innovations.family, (total, 2))
    return z


def _path_columns(
    z: np.ndarray,
    scales: tuple[float, float, float],
    filt_coeffs: np.ndarray,
    beta: float,
    varsigma: float,
    burn: int,
    grid: tuple[int, ...],
    want_ape: bool,
) -> dict[int, tuple[dict, np.ndarray]]:
    """{n: (base per-path quantities, degenerate row mask)} at every n of
    ``grid`` from draws ``z`` (rows, burn + grid[-1] + 1, 2) scaled by
    (sigma_omega, rho, sigma_theta); the quantities are x_n, beta_hat and
    s_xx, plus ape and the scored-eps sse when ``want_ape``.

    Each n is scored on prefix slices, bit for bit as a batch drawn at n
    alone (see ``_chunk_worker`` for the one exception).  Every operation
    acts along axis 1, so row results do not depend on batching.  Scoring
    reuses buffers in place; ``z`` is freed once consumed.
    """
    s_om, rho, s_th = scales
    om = s_om * z[:, :, 0]
    eps = rho * om + s_th * z[:, :, 1]
    del z
    xs = fir_rows(filt_coeffs, om[:, :-1])  # eta
    del om
    if varsigma == 1.0:
        xs = np.cumsum(xs, axis=1, out=xs)
    else:
        xs = ar1_rows(xs, varsigma)
    n_max = grid[-1]
    u = xs[:, burn : burn + n_max - 1]  # pair regressors x_1 .. x_{n-1}
    cols = {n: {"x_n": xs[:, burn + n - 1].copy()} for n in grid}
    bad = {n: _degenerate_mask(u[:, : n - 1]) for n in grid}
    if want_ape:
        e2 = eps[:, burn + 2 : burn + n_max] ** 2  # scored eps_3 .. eps_n
    v = eps[:, burn + 1 : burn + n_max]  # pair responses y_2 .. y_n, in place
    v += beta * u
    uu = u * u
    uv = u * v
    for n in grid:
        s_xx = uu[:, : n - 1].sum(axis=1)
        safe_xx = np.where(s_xx > 0.0, s_xx, 1.0)
        cols[n].update(beta_hat=uv[:, : n - 1].sum(axis=1) / safe_xx, s_xx=s_xx)
    if want_ape:
        c_xx = np.cumsum(uu, axis=1, out=uu)[:, :-1]  # energy after pairs 1..n-2
        off = ~(c_xx > 0.0)  # no estimate yet to predict the next pair
        np.copyto(c_xx, 1.0, where=off)
        err = np.cumsum(uv, axis=1, out=uv)[:, :-1]
        np.divide(err, c_xx, out=err)  # running beta_hat
        np.multiply(u[:, 1:], err, out=err)
        np.subtract(v[:, 1:], err, out=err)
        np.multiply(err, err, out=err)
        np.copyto(err, 0.0, where=off)
        np.copyto(e2, 0.0, where=off)
        for n in grid:
            cols[n].update(ape=err[:, : n - 2].sum(axis=1), sse=e2[:, : n - 2].sum(axis=1))
    return {n: (cols[n], bad[n]) for n in grid}


def _published_columns(base: dict, beta: float, n: int) -> dict[str, np.ndarray]:
    """The per-path statistics ``sample_statistics`` returns, derived
    elementwise from the base quantities of ``_path_columns``."""
    x_n, s_xx = base["x_n"], base["s_xx"]
    safe_xx = np.where(s_xx > 0.0, s_xx, 1.0)
    d = base["beta_hat"] - beta
    cols = {"beta_hat_final": base["beta_hat"]}
    cols["norm_est_sq"] = (n * d) ** 2
    cols["x_n_sq_over_n"] = x_n**2 / n
    cols["fpe_stat"] = cols["x_n_sq_over_n"] * cols["norm_est_sq"]
    cols["x_n_sq"] = x_n**2
    cols["n_est_sq"] = n * d**2
    cols["log_fisher"] = np.where(s_xx > 0.0, np.log(safe_xx) - 2.0 * math.log(n), np.nan)
    if "ape" in base:
        cols["ape"] = base["ape"]
        cols["excess_ape"] = base["ape"] - base["sse"]
    return cols


def _rate_error(failures: int, where: str) -> DegenerateRateError:
    return DegenerateRateError(
        f"degenerate-path rate exceeded {MAX_FAILURE_RATE:.1%} ({failures} resample events "
        f"{where}); model cannot score predictions"
    )


def _chunk_worker(
    config: ExperimentConfig, filt: Filter, grid: tuple[int, ...], want_ape: bool,
    max_failures: float, rep_start: int, rep_stop: int,
) -> tuple[dict, dict]:
    burn = stationary_burn_in(config.varsigma)
    rho, sigma_theta_sq = derived_correlation(config.innovations)
    scales = (math.sqrt(config.innovations.sigma_omega_sq), rho, math.sqrt(sigma_theta_sq))
    # draws fill in sequence and the FIR, cumsum and AR recursions are causal,
    # so a path at n is a prefix of the path at n_max; but the FIR's per-row
    # np.convolve swaps its operands, and so sums in another order, once the
    # row is no longer than the taps, so such a short n gets a pass of its own
    passes = [(n,) for n in grid[:-1] if burn + n <= len(filt.coeffs)]
    passes.append(grid[len(passes):])

    out: dict[int, dict[str, np.ndarray]] = {}
    failures = dict.fromkeys(grid, 0)
    rows = max(4, _ROW_VALUES // (2 * (burn + grid[-1] + 1)))
    for block in range(rep_start, rep_stop, rows):
        # (reps, points) to score at this attempt; a row degenerate at n is
        # rescored at n alone from its next attempt
        block_reps = np.arange(block, min(block + rows, rep_stop))
        todo, attempt = [(block_reps, points) for points in passes], 0
        while todo:
            retry = []
            for reps, points in todo:
                scored = _path_columns(
                    _draws(config, reps, attempt, burn + points[-1] + 1), scales,
                    filt.coeffs, config.beta, config.varsigma, burn, points, want_ape,
                )
                for n, (cols, bad) in scored.items():
                    if n not in out:
                        out[n] = {name: np.empty(rep_stop - rep_start) for name in cols}
                    for name, col in cols.items():
                        out[n][name][reps[~bad] - rep_start] = col[~bad]
                    failures[n] += int(bad.sum())
                    if failures[n] > max_failures:
                        raise _rate_error(failures[n], f"at n={n}")
                    if bad.any():
                        retry.append((reps[bad], (n,)))
            todo, attempt = retry, attempt + 1
    return out, failures


def sample_statistics(
    config: ExperimentConfig,
    grid: tuple[int, ...],
    want_ape: bool | None = None,
    workers: int = 1,
) -> dict[int, dict[str, np.ndarray]]:
    """{n: per-path statistic columns over all replications} for each n of
    ``grid``, from one pass: each replication is drawn, filtered and
    integrated once at the largest n, and smaller n score its prefixes.

    The columns at n, ``resampled`` included, are bit-identical to those
    of a call with grid (n,), whatever the worker count (one process pool
    when ``workers`` > 1): streams are keyed by replication index, and
    fixed-size chunks are reassembled in index order.
    """
    grid = tuple(sorted(set(grid)))
    if want_ape is None:
        want_ape = "excess_ape" in config.statistics
    filt = materialize_filter(config.filter_spec)
    max_failures = max(1.0, MAX_FAILURE_RATE * config.reps)
    work = partial(_chunk_worker, config, filt, grid, want_ape, max_failures)
    starts = range(0, config.reps, _CHUNK)
    stops = [min(start + _CHUNK, config.reps) for start in starts]
    if workers <= 1 or len(starts) == 1:
        results = list(map(work, starts, stops))
    else:
        # a pool forks all its workers up front; more than chunks would idle
        with ProcessPoolExecutor(max_workers=min(workers, len(starts))) as pool:
            results = list(pool.map(work, starts, stops))
    merged = {}
    for n in grid:
        failures = sum(r[1][n] for r in results)
        if failures > max_failures:
            raise _rate_error(failures, f"over {config.reps} reps at n={n}")
        base = {name: np.concatenate([r[0][n][name] for r in results]) for name in results[0][0][n]}
        merged[n] = _published_columns(base, config.beta, n)
        merged[n]["resampled"] = np.array([failures])
    return merged


def _mean_se(a: np.ndarray) -> tuple[float, float]:
    r = len(a)
    mean = float(np.sum(a) / r)
    if r < 2:
        return mean, float("nan")
    var = float(np.sum((a - mean) ** 2) / (r - 1))
    return mean, math.sqrt(var / r)


def limit_target(config: ExperimentConfig, statistic: str, n: int) -> float | None:
    """Asymptotic mean of a statistic at n, if one applies.

    The targets are integrated-regressor limits, so stationary-mode runs
    get None.
    """
    if config.varsigma != 1.0:
        return None
    sigma_sq = config.innovations.sigma_sq
    params = brownian.LimitParams.from_model(
        materialize_filter(config.filter_spec), config.innovations
    )
    if statistic == "fpe_stat":
        return 2.0 * sigma_sq
    if statistic == "excess_ape":
        return 2.0 * sigma_sq * math.log(n)
    if statistic == "norm_est_sq":
        return brownian.mse_limit_formula(params)
    if statistic == "x_n_sq_over_n":
        return params.lam**2
    if statistic == "log_fisher":
        return 2.0 * math.log(n)
    return None


def summarize(
    config: ExperimentConfig, statistic: str, n: int, column: np.ndarray
) -> McSummary:
    """Mean and MC standard error of one statistic's per-path column at n."""
    mean, se = _mean_se(column)
    target = limit_target(config, statistic, n)
    return McSummary(
        statistic=statistic,
        n=n,
        mean=mean,
        mc_se=se if config.reps >= 30 else None,
        reps=config.reps,
        seed=config.base_seed,
        ratio=mean / target if target else None,
    )


def run(config: ExperimentConfig, workers: int = 1) -> list[McSummary]:
    """Mean and MC standard error of each requested statistic at each n."""
    columns = sample_statistics(config, config.n_grid, workers=workers)
    return [
        summarize(config, stat, n, columns[n][stat])
        for n in config.n_grid
        for stat in config.statistics
    ]


def ape_slope(summaries: list[McSummary]) -> float:
    """OLS slope of mean excess APE against log n over the grid."""
    pts = [(math.log(s.n), s.mean) for s in summaries if s.statistic == "excess_ape"]
    if len(pts) < 3:
        raise ValueError(f"need >= 3 excess_ape grid points, got {len(pts)}")
    lx = np.array([p[0] for p in pts])
    ly = np.array([p[1] for p in pts])
    return float(np.polyfit(lx, ly, 1)[0])


def _moment_contrast(a: np.ndarray, b: np.ndarray) -> tuple[dict, tuple]:
    """Joint moment E[ab] against the product of marginals E[a] E[b].

    The product's standard error is the delta method's, with the sample
    covariance of (a, b) as the cross term.  Returns the contrast's report
    fields and the marginal (mean_a, se_a, mean_b, se_b, cov_ab).
    """
    r = len(a)
    joint, joint_se = _mean_se(a * b)
    mean_a, se_a = _mean_se(a)
    mean_b, se_b = _mean_se(b)
    cov_ab = float(np.sum((a - mean_a) * (b - mean_b)) / (r - 1))
    product = mean_a * mean_b
    product_se = math.sqrt(
        max(
            mean_b**2 * se_a**2
            + mean_a**2 * se_b**2
            + 2.0 * mean_a * mean_b * cov_ab / r,
            0.0,
        )
    )
    contrast = {
        "reps": r,
        "joint": joint,
        "joint_se": joint_se,
        "product": product,
        "product_se": product_se,
    }
    return contrast, (mean_a, se_a, mean_b, se_b, cov_ab)


def cross_moment_from(columns: dict, n: int) -> dict:
    """cross_moment over ``sample_statistics`` columns already drawn at n."""
    a = columns["x_n_sq_over_n"]
    b = columns["norm_est_sq"]
    contrast, (mean_a, se_a, mean_b, se_b, cov_ab) = _moment_contrast(a, b)
    r = len(a)
    sd_a = math.sqrt(float(np.sum((a - mean_a) ** 2) / (r - 1)))
    sd_b = math.sqrt(float(np.sum((b - mean_b) ** 2) / (r - 1)))
    corr = cov_ab / (sd_a * sd_b)
    corr_se = (1.0 - corr**2) / math.sqrt(r - 3)
    return {
        "n": n,
        **contrast,
        "mean_x_n_sq_over_n": mean_a,
        "se_x_n_sq_over_n": se_a,
        "mean_norm_est_sq": mean_b,
        "se_norm_est_sq": se_b,
        "corr": corr,
        "corr_se": corr_se,
    }


def cross_moment(config: ExperimentConfig, workers: int = 1) -> dict:
    """Joint vs product-of-marginals moments of (x_n^2/n, n^2(bh-b)^2)
    at the largest n.

    The joint moment is the mean of the per-path product, which is the
    per-path fpe_stat by construction; the marginal product estimates the
    limit of the decoupled moments.
    """
    require(config, "cross-moment")
    n = config.n_grid[-1]
    columns = sample_statistics(config, (n,), want_ape=False, workers=workers)[n]
    return cross_moment_from(columns, n)


def stationary_comparison_from(columns: dict, n: int) -> dict:
    """stationary_comparison over ``sample_statistics`` columns already
    drawn at n."""
    a = columns["x_n_sq"]
    b = columns["n_est_sq"]
    contrast, (mean_a, _, mean_b, _, _) = _moment_contrast(a, b)
    q = (a - mean_a) * (b - mean_b)
    return {
        "n": n,
        **contrast,
        "diff": contrast["joint"] - contrast["product"],
        "diff_se": _mean_se(q)[1],
    }


def stationary_comparison(config: ExperimentConfig, workers: int = 1) -> dict:
    """Joint and product moments of (x_n^2, n(bh-b)^2) in stationary mode
    at the largest n.

    Both tend to sigma^2 and decouple in the limit, the contrast with the
    unit-root cross moment.
    """
    require(config, "stationary")
    n = config.n_grid[-1]
    columns = sample_statistics(config, (n,), want_ape=False, workers=workers)[n]
    return stationary_comparison_from(columns, n)


def _two_sample_ks(a: np.ndarray, b: np.ndarray) -> float:
    """Two-sample Kolmogorov-Smirnov distance sup_x |F_a(x) - F_b(x)|."""
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    grid = np.concatenate((a, b))
    fa = np.searchsorted(a, grid, side="right") / len(a)
    fb = np.searchsorted(b, grid, side="right") / len(b)
    return float(np.max(np.abs(fa - fb)))


def limit_distribution_check(
    finite_sample: np.ndarray, limit_sample: np.ndarray
) -> float:
    """KS distance between finite-n fpe_stat draws and limit-law draws."""
    sizes = (len(finite_sample), len(limit_sample))
    if min(sizes) < KS_MIN_SAMPLES:
        raise ValueError(
            f"need >= {KS_MIN_SAMPLES} samples per side, got {sizes[0]} and {sizes[1]}"
        )
    return _two_sample_ks(finite_sample, limit_sample)
