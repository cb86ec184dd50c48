"""Replicated finite-n experiments over sample-size grids.

The engine vectorizes across replications in fixed-size batches while
keeping one keyed stream per replication, so every per-path statistic is
bit-identical no matter the worker count, batch shape, or completion
order.  Aggregation happens once, on assembled full-length arrays, to
keep reductions deterministic too.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from concurrent.futures import Executor
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from . import brownian
from .errors import ConfigError, DegeneratePathError, Validated
from .innovations import InnovationSpec, _scaled_pairs, _standardized
from .linear_process import Filter, FilterSpec, materialize_filter, stationary_burn_in
# substream, the per-key reference, stays importable here for bench/layertrace.py
from .streams import ROLE_PATH, map_units, substream, substreams  # noqa: F401
from .streams import tile_buffers, tile_rows

STATISTICS = (
    "excess_ape",
    "fpe_stat",
    "norm_est_sq",
    "x_n_sq_over_n",
)

# Work units only: a block is worked in the tiles of streams.tile_rows,
# so these bound no buffer.
_CHUNK = 4096          # most replications per work unit
_ROW_VALUES = 1 << 22  # draws per work unit

# The MA filter runs as block-Toeplitz products (see _filtered_rows): steps
# per block, and blocks per BLAS product.  Every product has this one shape,
# whatever the tile, so a row's bits never depend on the rows beside it.
_BLOCK = 32
_GEMM_BLOCKS = 16
_TOEPLITZ_INDEX = np.arange(_BLOCK) - np.arange(_BLOCK)[:, None] + _BLOCK - 1

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
    # the engine no longer calls scipy.signal; the name stays only for
    # bench/layertrace.py, which patches it, until that tracer drops it
    # (ROADMAP item 1).  Importing it only when asked for keeps its slow
    # import off urlab's start-up
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
        """A path at n scores nothing unless its n - 1 pairs pass the
        unscored lead by two: one pair makes the first estimate, the next
        is the first one scored."""
        try:
            lead = _unscored_lead(materialize_filter(self.filter_spec), self.varsigma)
        except ConfigError as exc:
            return exc.problems
        if n > lead + 2:
            return []
        return [
            f"n = {n} can score no prediction: the filter's leading zero taps keep "
            f"x_1 .. x_{lead} at 0 after the burn-in, so n must exceed {lead + 2}"
        ]

    def __post_init__(self):
        if not isinstance(self.n_grid, tuple):
            object.__setattr__(self, "n_grid", tuple(self.n_grid))
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


def _unscored_lead(filt: Filter, varsigma: float) -> int:
    """The pairs no path can use: with z leading zero taps, eta is 0 for
    the first z steps, burn-in included, so x_1 .. x_lead are exactly 0
    on every path, lead = max(0, z - burn-in)."""
    zeros = int(np.flatnonzero(filt.coeffs)[0])
    return max(0, zeros - stationary_burn_in(varsigma))


def _draws(streams: Iterator[np.random.Generator], family: str, z: np.ndarray) -> np.ndarray:
    """Fill each row of ``z`` (rows, steps, 2) with standardized draws of
    ``family`` from the next generator of ``streams``, one keyed stream
    per replication; a Gaussian row is drawn into place."""
    for row, rng in zip(z, streams):
        if family == "gaussian":
            rng.standard_normal(out=row)
        else:
            row[...] = _standardized(rng, family, row.shape)
    return z


def _padded_values(rows: int, width: int) -> int:
    """Floats that ``_filtered_rows`` reads or writes for ``rows`` rows of
    ``width`` steps: each row's blocks, and those padding the last product."""
    blocks = rows * -(-width // _BLOCK)
    return -(-blocks // _GEMM_BLOCKS) * _GEMM_BLOCKS * _BLOCK


def _ar_scan(a: np.ndarray, phi: float) -> np.ndarray:
    """a_k += phi a_{k-1} along axis 1 of ``a``, in place, k ascending.

    At phi = 1 this is numpy's ``cumsum``; otherwise a doubling scan,
    whose step d = 1, 2, 4, ... adds phi^d a_{k-d} to each a_k with
    k >= d.  It stops once phi^d is subnormal: such products are slow and
    would add less than 2^-1022 times a value.  Index k takes the same
    steps in any row longer than k, so a short row's bits are a prefix of
    a long one's.
    """
    if phi == 1.0:
        return np.cumsum(a, axis=1, out=a)
    step, power, tiny = 1, phi, np.finfo(float).tiny
    while step < a.shape[1] and abs(power) >= tiny:
        a[:, step:] += power * a[:, :-step]
        step, power = 2 * step, power * power
    return a


@lru_cache(maxsize=8)
def _toeplitz_block(filt: Filter, taps: int, m: int, varsigma: float) -> np.ndarray:
    """T_m V, where T_m[i, o] = c_{o + m B - i}, 0 outside the first
    ``taps`` taps of ``filt``, is what input block k - m adds to output
    block k, and V[i, o] = varsigma^(o - i) for o >= i, else 0, runs the
    AR(1) x_o = varsigma x_{o-1} + eta_o across the block from a zero
    start (a running sum at the unit root, eta itself at varsigma = 0).
    Read-only; the last few built are kept, since every tile of a pass
    uses the same ones."""
    # T_m[i, o] reads a zero-padded run of taps, c_{m B - B + 1} .. c_{m B + B - 1}
    run = np.zeros(2 * _BLOCK - 1)
    lo = m * _BLOCK - _BLOCK + 1
    part = filt.coeffs[max(lo, 0) : min(lo + len(run), taps)]
    run[max(-lo, 0) : max(-lo, 0) + len(part)] = part
    t = _ar_scan(run[_TOEPLITZ_INDEX], varsigma)  # column o of T_m V
    t.setflags(write=False)
    return t


def _filtered_rows(
    filt: Filter, omega: np.ndarray, varsigma: float, blocks: np.ndarray, out: np.ndarray
) -> np.ndarray:
    """The regressors x_t = varsigma x_{t-1} + eta_t, x_0 = 0, along each
    row of ``omega`` (rows, width), where eta_t = sum_j c_j omega_{t-j}
    over the lags that exist, c being the taps of ``filt``.  varsigma = 1
    is the unit root's running sum of eta, varsigma = 0 eta itself.

    Each row is cut into blocks of B = _BLOCK steps, its last one
    zero-padded, and block k of the products is s_k = sum_m A_{k-m} T_m V,
    A_j being input block j (see ``_toeplitz_block``): the AR output of
    block k from a zero start.  Only taps below ``width`` can reach an
    output, so no more are read, and each T_m V is built when it is used.
    The rows' blocks are stacked and zero-padded to whole products of
    _GEMM_BLOCKS blocks, and every BLAS product has that one shape: numpy
    sends a one-row product to gemv, which sums in another order.  So a
    row's bits do not depend on the rows stacked with it.  The true block
    ends are e_k = s_k[B - 1] + varsigma^B e_{k-1}, one ``_ar_scan`` along
    each row, and output o of block k adds varsigma^(o + 1) e_{k-1}.  At
    the unit root that scan is a ``cumsum`` and the add needs no product.
    Every step is causal and prefix-exact, so a path's outputs are a
    prefix of those of any longer path.

    ``blocks`` (flat) holds the stacked input, then each further product,
    and last the weighted carries; ``out`` (flat) takes the result,
    returned as a (rows, width) view.  Each needs
    ``_padded_values(rows, width)`` floats, ``blocks`` twice that when the
    taps span more than one block.  ``omega`` may lie in ``out``.
    """
    rows, width = omega.shape
    per_row = -(-width // _BLOCK)
    size = _padded_values(rows, width)
    stack = (size // (_GEMM_BLOCKS * _BLOCK), _GEMM_BLOCKS, _BLOCK)
    padded = blocks[: rows * per_row * _BLOCK].reshape(rows, per_row * _BLOCK)
    padded[:, :width] = omega
    padded[:, width:] = 0.0
    blocks[padded.size : size] = 0.0
    a = blocks[:size].reshape(stack)
    taps = min(len(filt.coeffs), width)
    terms = min(per_row, (taps + _BLOCK - 2) // _BLOCK + 1)
    np.matmul(a, _toeplitz_block(filt, taps, 0, varsigma), out=out[:size].reshape(stack))
    x = out[: padded.size].reshape(rows, per_row, _BLOCK)
    product = blocks[size : 2 * size]
    for m in range(1, terms):
        np.matmul(a, _toeplitz_block(filt, taps, m, varsigma), out=product.reshape(stack))
        x[:, m:] += product[: x.size].reshape(x.shape)[:, : per_row - m]
    carry = _ar_scan(x[:, :-1, -1].copy(), varsigma**_BLOCK)[:, :, None]
    if varsigma != 1.0:  # the spent input blocks take the weighted carries
        spent = blocks[: x[:, 1:].size].reshape(x[:, 1:].shape)
        carry = np.multiply(carry, varsigma ** np.arange(1.0, _BLOCK + 1), out=spent)
    x[:, 1:] += carry
    return x.reshape(rows, -1)[:, :width]


def _path_columns(
    z: np.ndarray,
    work: tuple[np.ndarray, np.ndarray],
    innovations: InnovationSpec,
    filt: Filter,
    varsigma: float,
    burn: int,
    lead: int,
    grid: tuple[int, ...],
    want_ape: bool,
    first: int,
) -> dict[int, dict]:
    """{n: base per-path quantities} at every n of ``grid`` from
    standardized draws ``z`` (rows, burn + grid[-1] + 1, 2) of the
    ``innovations`` law, row 0 being replication ``first``; the
    quantities are x_n and the estimation error d = beta_hat - beta, plus
    excess_ape when ``want_ape``.

    Each n is scored on prefix slices, bit for bit as a batch drawn at n
    alone.  Every operation acts along axis 1, so row results do not
    depend on batching or tiling.  The response is beta x + eps, so d is
    sum x eps / sum x^2 and a prediction error is eps - d x: no response
    is formed, and no beta_hat - beta cancels.

    Pairs 1 .. ``lead`` have x = 0 on every path (``_unscored_lead``), so
    every row scores pairs lead + 2 on, and one whose x_{lead+1}^2 is 0
    raises DegeneratePathError.  A scored pair adds (eps - t)^2 - eps^2 =
    t (t - 2 eps), t = d x, to excess_ape: APE less the scored sum of
    eps^2, both of order n, would cancel.

    ``work`` holds the flat draw buffer that ``z`` is the contiguous head
    of, then two flat float planes, each of at least
    ``_padded_values(rows, steps)`` floats and z's rows times steps.  Every
    path-length array is a view of it, four float planes in all, so no
    step allocates one:

    - the om plane takes omega, then the regressors x, then with APE
      t = d x and each pair's t (t - 2 eps);
    - the eps plane takes epsilon, then with APE t - 2 eps;
    - the draws, spent once omega and epsilon are out, take the padded
      omega blocks and the filter's products, then the (x^2, x eps) pairs
      as complex numbers, whose sums give each n's sum x^2 and sum x eps.
      With APE one complex ``cumsum`` turns them into the running sums,
      whose ratio is the running d.
    """
    rows, total = z.shape[:2]
    draws, planes = work
    om, eps = (plane[: rows * total].reshape(rows, total) for plane in planes)
    _scaled_pairs(innovations, z, out=(om, eps))
    xs = _filtered_rows(filt, om[:, :-1], varsigma, draws, out=planes[0])
    n_max = grid[-1]
    u = xs[:, burn : burn + n_max - 1]  # pair regressors x_1 .. x_{n-1}
    cols = {n: {"x_n": xs[:, burn + n - 1].copy()} for n in grid}
    pairs = draws[: 2 * rows * (n_max - 1)].view(complex).reshape(rows, n_max - 1)
    np.multiply(u, u, out=pairs.real)
    bad = pairs.real[:, lead] == 0.0
    if bad.any():
        raise DegeneratePathError(
            f"path {first + int(np.argmax(bad))}: x_{lead + 1}^2 is 0, so no estimate "
            f"exists to predict pair {lead + 2}"
        )
    np.multiply(u, eps[:, burn + 1 : burn + n_max], out=pairs.imag)  # eps_2 .. eps_n
    for n in grid:
        sums = pairs[:, : n - 1].sum(axis=1)
        cols[n]["d"] = sums.imag / sums.real
    if want_ape:
        # the running sums after pairs lead + 1 .. n - 2 (the lead adds
        # exact zeros), whose ratios predict pairs lead + 2 .. n - 1
        scan = pairs[:, lead:]
        run = np.cumsum(scan, axis=1, out=scan)[:, :-1]
        d = np.divide(run.imag, run.real, out=run.imag)
        # t overwrites x_{lead+2} .. x_{n-1}, and t - 2 eps eps_{lead+3} .. eps_n
        t = np.multiply(d, u[:, lead + 1 :], out=u[:, lead + 1 :])
        e = eps[:, burn + lead + 2 : burn + n_max]
        e *= -2.0
        e += t
        t *= e
        for n in grid:
            cols[n]["excess_ape"] = t[:, : n - 2 - lead].sum(axis=1)
    return cols


def _published_columns(base: dict, beta: float, n: int) -> dict[str, np.ndarray]:
    """The per-path statistics ``sample_statistics`` returns, derived
    elementwise from the base quantities of ``_path_columns``."""
    x_n = base["x_n"]
    d = base["d"]
    cols = {"beta_hat_final": beta + d}
    cols["norm_est_sq"] = (n * d) ** 2
    cols["x_n_sq_over_n"] = x_n**2 / n
    cols["fpe_stat"] = cols["x_n_sq_over_n"] * cols["norm_est_sq"]
    cols["x_n_sq"] = x_n**2
    cols["n_est_sq"] = n * d**2
    if "excess_ape" in base:
        cols["excess_ape"] = base["excess_ape"]
    return cols


def _block_worker(
    config: ExperimentConfig, filt: Filter, grid: tuple[int, ...], want_ape: bool,
    tile: int, block: range,
) -> dict:
    """{n: base columns} of the replications in ``block``, drawn and scored
    ``tile`` rows at a time past the config's unscored lead (see
    ``_unscored_lead``); the first path whose regressor x_{lead+1} is 0
    raises DegeneratePathError."""
    burn = stationary_burn_in(config.varsigma)
    lead = _unscored_lead(filt, config.varsigma)
    # draws fill in sequence and the filter's blocks and carries are
    # causal, so a path at n is a prefix of the path at n_max
    width = burn + grid[-1] + 1
    values = _padded_values(tile, width)  # at least tile * width
    draws, planes = tile_buffers(((2 * values,), float), ((2, values), float))
    # seeded once for all the tiles, which take the streams in turn
    streams = substreams(config.base_seed, ROLE_PATH, np.arange(block.start, block.stop))
    out: dict[int, dict[str, np.ndarray]] = {}
    for lo in range(0, len(block), tile):
        rows = min(tile, len(block) - lo)
        z = draws[: 2 * rows * width].reshape(rows, width, 2)
        scored = _path_columns(
            _draws(streams, config.innovations.family, z), (draws, planes),
            config.innovations, filt, config.varsigma, burn, lead, grid, want_ape,
            block.start + lo,
        )
        for n, cols in scored.items():
            if n not in out:
                out[n] = {name: np.empty(len(block)) for name in cols}
            for name, col in cols.items():
                out[n][name][lo : lo + rows] = col
    return out


def sample_statistics(
    config: ExperimentConfig,
    grid: tuple[int, ...],
    want_ape: bool | None = None,
    workers: int | Executor | None = None,
) -> dict[int, dict[str, np.ndarray]]:
    """{n: per-path statistic columns over all replications} for each n of
    ``grid``, from one pass: each replication is drawn, filtered and
    integrated once at the largest n, and smaller n score its prefixes.

    The work units are blocks of consecutive replications, at most
    ``_CHUNK`` of them and about ``_ROW_VALUES`` draws; ``streams.map_units``
    runs them over ``workers``, an open pool or a process count (None: the
    usable cores), and they are reassembled in index order.  Each block is
    worked in the tiles of ``streams.tile_rows``, sized once here from the
    widest path, in ``streams.tile_buffers``: the draw tile and two float
    planes, whose reuse ``_path_columns`` schedules.  So each tile row
    takes four float planes of its path's length, and a process touches
    about 2.3 MiB of fresh memory at n = 32000, not a block's 100 MiB.
    The columns at n are bit-identical to those of a call with grid (n,),
    whatever the worker count or tile size: streams are keyed by
    replication index, and the filter's BLAS products have one shape (see
    ``_filtered_rows``).  With or without ``want_ape``, every column
    returned has the same bits.  No path is redrawn: a path whose x_{lead+1}
    is 0 (see ``_path_columns``) raises DegeneratePathError, naming the
    lowest such replication index whatever the worker count or tile size.
    """
    grid = tuple(sorted(set(grid)))
    if want_ape is None:
        want_ape = "excess_ape" in config.statistics
    filt = materialize_filter(config.filter_spec)
    width = stationary_burn_in(config.varsigma) + grid[-1] + 1
    rows = min(_CHUNK, max(4, _ROW_VALUES // (2 * width)))
    # a tile row holds its path rounded up to whole blocks of the filter
    tile = tile_rows(rows, 2 * _BLOCK * -(-width // _BLOCK))
    work = partial(_block_worker, config, filt, grid, want_ape, tile)
    blocks = [range(s, min(s + rows, config.reps)) for s in range(0, config.reps, rows)]
    results = map_units(work, blocks, workers)
    return {
        n: _published_columns(
            {name: np.concatenate([r[n][name] for r in results]) for name in results[0][n]},
            config.beta, n,
        )
        for n in grid
    }


def _mean_se(a: np.ndarray) -> tuple[float, float]:
    r = len(a)
    mean = float(np.sum(a) / r)
    if r < 2:
        return mean, float("nan")
    var = float(np.sum((a - mean) ** 2) / (r - 1))
    return mean, math.sqrt(var / r)


def limit_target(config: ExperimentConfig, statistic: str) -> float | None:
    """Asymptotic mean of a statistic, if it has one.

    The FPE constant is 2 sigma^2 at the unit root and sigma^2 with a
    stationary regressor; the other targets are integrated-regressor
    limits.  excess_ape has no finite mean at any n, so it gets None.
    """
    sigma_sq = config.innovations.sigma_sq
    if statistic == "fpe_stat":
        return 2.0 * sigma_sq if config.varsigma == 1.0 else sigma_sq
    if config.varsigma != 1.0:
        return None
    params = brownian.LimitParams.from_model(
        materialize_filter(config.filter_spec), config.innovations
    )
    if statistic == "norm_est_sq":
        return brownian.mse_limit_formula(params)
    if statistic == "x_n_sq_over_n":
        return params.lam**2
    return None


def summarize(
    config: ExperimentConfig, statistic: str, n: int, column: np.ndarray
) -> McSummary:
    """Mean and MC standard error of one statistic's per-path column at n."""
    mean, se = _mean_se(column)
    target = limit_target(config, statistic)
    return McSummary(
        statistic=statistic,
        n=n,
        mean=mean,
        mc_se=se if config.reps >= 30 else None,
        reps=config.reps,
        seed=config.base_seed,
        ratio=mean / target if target else None,
    )


def run(config: ExperimentConfig, workers: int | Executor | None = None) -> list[McSummary]:
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


def _at_n_max(config: ExperimentConfig, check: str, contrast_from, workers) -> dict:
    """``contrast_from`` of the columns at the largest n, gated as ``check``."""
    require(config, check)
    n = config.n_grid[-1]
    columns = sample_statistics(config, (n,), want_ape=False, workers=workers)[n]
    return contrast_from(columns, n)


def cross_moment(config: ExperimentConfig, workers: int | Executor | None = None) -> dict:
    """Joint vs product-of-marginals moments of (x_n^2/n, n^2(bh-b)^2)
    at the largest n.

    The joint moment is the mean of the per-path product, which is the
    per-path fpe_stat by construction; the marginal product estimates the
    limit of the decoupled moments.
    """
    return _at_n_max(config, "cross-moment", cross_moment_from, workers)


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


def stationary_comparison(config: ExperimentConfig, workers: int | Executor | None = None) -> dict:
    """Joint and product moments of (x_n^2, n(bh-b)^2) in stationary mode
    at the largest n.

    Both tend to sigma^2 and decouple in the limit, the contrast with the
    unit-root cross moment.
    """
    return _at_n_max(config, "stationary", stationary_comparison_from, workers)


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
