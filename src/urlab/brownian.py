"""Direct simulation of the Brownian-functional limit laws.

Normalized on [0, 1]: a path is m Gaussian increments of variance 1/m,
integrals are left-endpoint Riemann/Ito sums.  Left endpoints are
correctness-critical, not a discretization taste: midpoint or right
sums push the self-integral to the Stratonovich value and every
constant below drifts by a w^2 term.

``estimate_constants`` (ROLE_CONSTANTS, grid 2m) and
``limit_sample_batch`` (ROLE_BM, grid m) share one work unit, ``_batch``,
and one policy.  Batch b is drawn from substream(base_seed, role, b).  A
path whose time integral Q is under the floor (for the constants, at
either grid) is redrawn from substream(base_seed, role, path index,
attempt), attempt 1 ... 64, and counted; ResamplePathError ends the run
if none clears it.  A batch depends on nothing but its key, so
``streams.map_units`` runs the batches over ``workers``, serially, over
a caller's open pool or over a pool of its own (by default one process
per usable core), and the samplers combine them in batch order.

Within a batch, ``_scored`` draws, sums and scores one tile of
``streams.tile_rows`` at a time in the thread's two reused
``streams.tile_buffers``.  Consecutive tiles continue the batch's
stream and every score reduces along a path, so the tile size changes no
bit; a redrawn path goes through the same buffers.
"""

from __future__ import annotations

import math
from concurrent.futures import Executor
from dataclasses import asdict, dataclass
from functools import partial

import numpy as np

from .errors import ConfigError, ResamplePathError, Validated
from .innovations import derived_correlation
from .streams import ROLE_BM, ROLE_CONSTANTS, map_units, substream, tile_buffers, tile_rows

# Time integrals below this are degenerate: the exact event has probability
# zero, so reaching the floor is a float pathology, and the path is redrawn.
_TIME_INTEGRAL_FLOOR = 1e-12

# Replacement draws tried per degenerate path.  On a sound grid the floor
# is hit with vanishing probability; at m = 1 every path has Q = 0, and
# the retries would otherwise never end.
_MAX_RESAMPLE_ATTEMPTS = 64

# Rows per generation batch, sized so a batch stays near 16 MiB of draws.
# A batch is the stream key: batch b draws from substream(base_seed, role, b).
_BATCH_VALUES = 1 << 21

# Smallest grid estimate_constants accepts.  Q at grid m is a quadratic
# form in m - 1 Gaussians, so E[Q^-2], which K2's standard error needs, is
# finite only when m - 1 > 4; below that the reported se means nothing.
_MIN_CONSTANTS_GRID = 8


@dataclass(frozen=True, eq=False)
class BmPath:
    """One two-dimensional Brownian path on a regular grid."""

    m: int
    dwa: np.ndarray
    dwb: np.ndarray
    wa: np.ndarray  # levels at grid points 0..m, wa[0] = 0
    wb: np.ndarray

    @classmethod
    def generate(cls, m: int, rng: np.random.Generator) -> "BmPath":
        if m < 1:
            raise ConfigError([f"grid size m must be >= 1, got {m}"])
        z = rng.standard_normal((m, 2)) * math.sqrt(1.0 / m)
        dwa, dwb = z[:, 0], z[:, 1]
        wa = np.concatenate(([0.0], np.cumsum(dwa)))
        wb = np.concatenate(([0.0], np.cumsum(dwb)))
        return cls(m=m, dwa=dwa, dwb=dwb, wa=wa, wb=wb)


@dataclass(frozen=True)
class LimitParams(Validated):
    """Scale parameters entering the limit functionals.

    Holds the primitives only: the correlation rho, the scales sigma_omega
    and sigma_theta, and the filter sum theta.  iota^2 = theta^2 and
    lambda = sigma_omega * theta are derived on each read.
    """

    rho: float
    sigma_omega: float
    sigma_theta: float
    theta: float

    def problems(self) -> list[str]:
        out = []
        if not self.sigma_omega > 0.0:
            out.append(f"sigma_omega must be > 0, got {self.sigma_omega}")
        if self.sigma_theta < 0.0:
            out.append(f"sigma_theta must be >= 0, got {self.sigma_theta}")
        if not self.iota_sq > 0.0:
            out.append(f"iota_sq = theta^2 must be > 0, got theta = {self.theta}")
        return out

    @property
    def iota_sq(self) -> float:
        return self.theta**2

    @property
    def lam(self) -> float:
        return self.sigma_omega * self.theta

    @classmethod
    def from_model(cls, filt, innov) -> "LimitParams":
        """Params implied by a materialized filter and an innovation spec."""
        rho, sigma_theta_sq = derived_correlation(innov)
        return cls(
            rho=rho,
            sigma_omega=math.sqrt(innov.sigma_omega_sq),
            sigma_theta=math.sqrt(sigma_theta_sq),
            theta=filt.theta,
        )


def ito_integral(levels: np.ndarray, increments: np.ndarray) -> float:
    """Left-endpoint Ito sum: sum_k levels[k-1] * increments[k]."""
    if len(levels) != len(increments) + 1:
        raise ValueError(
            f"levels has {len(levels)} points but increments has {len(increments)}; "
            "need len(levels) == len(increments) + 1"
        )
    return float(np.dot(levels[:-1], increments))


def time_integral_sq(levels: np.ndarray) -> float:
    """Left Riemann sum of w^2 over [0, 1]: (1/m) sum_k levels[k-1]^2."""
    if len(levels) < 2:
        raise ValueError("need at least one increment")
    w = levels[:-1]
    return float(np.dot(w, w)) / (len(levels) - 1)


def limit_sample(path: BmPath, p: LimitParams) -> dict:
    """One dependent draw of the two limit functionals from a shared path.

        fpe draw: wa(1)^2 (rho sig_w I_aa + sig_t I_ab)^2 / Q^2
        mse draw: the same ratio without the wa(1)^2 factor, over lambda^2

    with I_aa, I_ab the Ito integrals of wa against dwa, dwb and
    Q the time integral of wa^2.
    """
    q = time_integral_sq(path.wa)
    if q < _TIME_INTEGRAL_FLOOR:
        raise ResamplePathError(f"time integral {q:.3g} below {_TIME_INTEGRAL_FLOOR}")
    i_aa = ito_integral(path.wa, path.dwa)
    i_ab = ito_integral(path.wa, path.dwb)
    num = (p.rho * p.sigma_omega * i_aa + p.sigma_theta * i_ab) ** 2
    return {
        "fpe_limit_draw": path.wa[-1] ** 2 * num / q**2,
        "mse_limit_draw": num / (p.lam**2 * q**2),
    }


def _divisor(q: np.ndarray) -> np.ndarray:
    # rows under the floor are redrawn unread; 1 keeps them from dividing by 0
    return np.where(q < _TIME_INTEGRAL_FLOOR, 1.0, q)


def _batch(m: int, width: int, rows: int, tile: int, reps: int, base_seed: int, role: int,
           score, batch: int):
    """(values, redrawn) of batch ``batch`` of (rows, m, width) draws, with
    ``score(levels, z)`` -> (Q, values), one value column per path."""
    start = batch * rows
    q, values = _scored(substream(base_seed, role, batch), min(rows, reps - start),
                        m, width, tile, score)
    redraw = np.nonzero(q < _TIME_INTEGRAL_FLOOR)[0]
    for r in redraw:
        index = start + int(r)
        for attempt in range(1, _MAX_RESAMPLE_ATTEMPTS + 1):
            rng = substream(base_seed, role, index, attempt)
            q1, new = _scored(rng, 1, m, width, tile, score)
            if q1[0] >= _TIME_INTEGRAL_FLOOR:
                values[:, r] = new[:, 0]
                break
        else:
            raise ResamplePathError(
                f"path {index}: time integral below {_TIME_INTEGRAL_FLOOR} "
                f"on {_MAX_RESAMPLE_ATTEMPTS} resamples"
            )
    return values, len(redraw)


def _scored(rng, paths: int, m: int, width: int, tile: int, score):
    """``score`` -> (Q, values) of ``paths`` paths drawn from ``rng``,
    ``tile`` rows at a time in the thread's reused buffers."""
    z, levels = tile_buffers(((tile, m, width), float), ((tile, m + 1), float))
    scale = math.sqrt(1.0 / m)
    qs, values = [], []
    for lo in range(0, paths, tile):
        zt = z[: min(tile, paths - lo)]
        rng.standard_normal(out=zt)
        zt *= scale
        lev = levels[: len(zt)]
        lev[:, 0] = 0.0
        np.cumsum(zt[:, :, 0], axis=1, out=lev[:, 1:])
        q, v = score(lev, zt)
        qs.append(q)
        values.append(v)
    return np.concatenate(qs), np.concatenate(values, axis=1)


def _map_batches(m, width, reps, base_seed, role, score, workers) -> list:
    """[(values, redrawn)] of every batch, in batch order, from
    ``streams.map_units``."""
    rows = min(max(1, _BATCH_VALUES // (m * width)), reps)
    work = partial(_batch, m, width, rows, tile_rows(rows, m * width), reps, base_seed, role, score)
    return map_units(work, range(-(-reps // rows)), workers)


def _limit_score(p: LimitParams, m: int, lev: np.ndarray, z: np.ndarray):
    w = lev[:, :-1]
    q = np.einsum("ij,ij->i", w, w) / m
    i_aa = np.einsum("ij,ij->i", w, z[:, :, 0])
    i_ab = np.einsum("ij,ij->i", w, z[:, :, 1])
    num = (p.rho * p.sigma_omega * i_aa + p.sigma_theta * i_ab) ** 2
    q_sq = _divisor(q) ** 2
    return q, np.stack((lev[:, -1] ** 2 * num / q_sq, num / (p.lam**2 * q_sq)))


def limit_sample_batch(
    p: LimitParams, m: int, reps: int, base_seed: int,
    workers: int | Executor | None = None,
) -> dict:
    """Vectorized limit_sample over ``reps`` paths; ``resampled`` counts
    redraws.  Batches run over ``workers``, an open pool or a process
    count (None: the usable cores), with equal bits."""
    if m < 1:
        raise ConfigError([f"grid size m must be >= 1, got {m}"])
    if reps < 1:
        raise ConfigError([f"reps must be >= 1, got {reps}"])
    batches = _map_batches(
        m, 2, reps, base_seed, ROLE_BM, partial(_limit_score, p, m), workers
    )
    draws = np.concatenate([values for values, _ in batches], axis=1)
    resampled = sum(redrawn for _, redrawn in batches)
    return {"fpe_limit_draw": draws[0], "mse_limit_draw": draws[1], "resampled": resampled}


@dataclass(frozen=True)
class ConstantEstimate:
    """A limit-constant value with its provenance."""

    name: str
    value: float
    se: float | None
    m: int | None
    reps: int | None
    seed: int | None
    source: str


# Two-digit constants as printed in the source analysis; usable wherever a
# formula needs K1/K2 without paying for re-estimation.
CANONICAL_K1 = ConstantEstimate("K1", 13.3, None, None, None, None, "canonical")
CANONICAL_K2 = ConstantEstimate("K2", 5.6, None, None, None, None, "canonical")


@dataclass(frozen=True)
class ConstantsReport:
    """Estimates at grid m plus the matched-path refinement at 2m."""

    m: int
    reps: int
    seed: int
    k1: ConstantEstimate
    k2: ConstantEstimate
    k1_refined: ConstantEstimate
    k2_refined: ConstantEstimate
    k1_gap: float  # |K1(m) - K1(2m)| on common paths
    k2_gap: float

    def as_dict(self) -> dict:
        """JSON-ready nested dict; keys follow field order."""
        return asdict(self)


def estimate_constants(
    m: int = 1 << 12, reps: int = 200_000, base_seed: int = 0,
    workers: int | Executor | None = None,
) -> ConstantsReport:
    """Monte Carlo estimates of K1 = E[(I/Q)^2] and K2 = E[1/Q].

    Paths are simulated once at grid 2m and coarsened to m by summing
    increment pairs (exact in law), so the (m, 2m) refinement gap is a
    matched-path discretization measurement rather than two noisy runs.
    Batches run as in ``limit_sample_batch``, with equal bits whatever
    ``workers``.
    """
    if m < _MIN_CONSTANTS_GRID:
        raise ConfigError([f"grid size m must be >= {_MIN_CONSTANTS_GRID}, got {m}"])
    if reps < 2:
        raise ConfigError([f"reps must be >= 2, got {reps}"])
    m_fine = 2 * m
    batches = _map_batches(
        m_fine, 1, reps, base_seed, ROLE_CONSTANTS, partial(_constants_score, m), workers
    )
    sums = sums_sq = gaps = 0.0
    for draws, _ in batches:
        sums += draws.sum(axis=1)
        sums_sq += (draws**2).sum(axis=1)
        gaps += (draws[:2] - draws[2:]).sum(axis=1)
    means = sums / reps
    variances = np.maximum(sums_sq / reps - means**2, 0.0)
    ses = np.sqrt(variances / (reps - 1))
    mk = lambda name, j, grid: ConstantEstimate(
        name, float(means[j]), float(ses[j]), grid, reps, base_seed, "estimated"
    )
    return ConstantsReport(
        m=m,
        reps=reps,
        seed=base_seed,
        k1=mk("K1", 0, m),
        k2=mk("K2", 1, m),
        k1_refined=mk("K1", 2, m_fine),
        k2_refined=mk("K2", 3, m_fine),
        k1_gap=abs(float(gaps[0] / reps)),
        k2_gap=abs(float(gaps[1] / reps)),
    )


def _constants_score(m: int, lev_f: np.ndarray, z: np.ndarray):
    """(min Q, draws) at grids m and 2m of paths drawn at 2m."""
    dw_f = z[:, :, 0]
    q_f, k1_f, k2_f = _constant_draws(lev_f, dw_f, 2 * m)
    # a length-2 axis reduction is ~10x slower than this, with equal bits
    q_c, k1_c, k2_c = _constant_draws(lev_f[:, ::2], dw_f[:, 0::2] + dw_f[:, 1::2], m)
    return np.minimum(q_c, q_f), np.stack((k1_c, k2_c, k1_f, k2_f))


def _constant_draws(lev: np.ndarray, dw: np.ndarray, m: int) -> tuple[np.ndarray, ...]:
    """(Q, K1 draw, K2 draw) per path at grid m."""
    w = lev[:, :-1]
    q = np.einsum("ij,ij->i", w, w) / m
    i_self = np.einsum("ij,ij->i", w, dw)
    d = _divisor(q)
    return q, (i_self / d) ** 2, 1.0 / d


def mse_limit_formula(
    p: LimitParams,
    k1: float = CANONICAL_K1.value,
    k2: float = CANONICAL_K2.value,
) -> float:
    """Limit of n^2 E(beta_hat - beta)^2 implied by (K1, K2) and the scales."""
    return (p.rho**2 / p.iota_sq) * k1 + (
        p.sigma_theta**2 / (p.iota_sq * p.sigma_omega**2)
    ) * k2
