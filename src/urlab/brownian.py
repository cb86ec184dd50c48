"""Direct simulation of the Brownian-functional limit laws.

Normalized on [0, 1]: a grid-m path is m Gaussian increments of variance
1/m, and integrals are left-endpoint Riemann/Ito sums.  Left endpoints are
correctness-critical, not a discretization taste: midpoint or right sums
push the self-integral to the Stratonovich value and every constant below
drifts by a w^2 term.  ``BmPath`` and ``limit_sample`` are the reference.

The batch samplers build no path.  What they sample depends on one only
through Q, W(1) and sum dw^2 (I_aa = (W(1)^2 - sum dw^2) / 2; I_ab given
the path is N(0, Q)), and ``_constant_draws`` scores these from a path's
first K = min(_TERMS, m - 1) coordinates in the walk's closed-form
eigenbasis, tails in closed form (``_spectrum``; the README derives it):
about K + 4 draws whatever m, and with K = m - 1 the grid law exactly.
``estimate_constants`` (ROLE_CONSTANTS) scores each path at grids m and 2m
on common draws, ``limit_sample_batch`` (ROLE_BM) at m.  Batch b draws
from substream(base_seed, role, b): per-path scalars, then coordinates
tile by tile in the thread's ``streams.tile_buffers``, so the tile size
changes no bit.  No path is redrawn: the first path whose Q is under the
floor (constants: at either grid) raises DegeneratePathError.  Q is at
least its tail mean, so this can happen only when K = m - 1, and both
samplers refuse m < 8, where it is more than a float pathology.
"""

from __future__ import annotations

import math
from concurrent.futures import Executor
from dataclasses import asdict, dataclass
from functools import lru_cache, partial

import numpy as np

from .errors import ConfigError, DegeneratePathError, Validated
from .innovations import derived_correlation
from .streams import ROLE_BM, ROLE_CONSTANTS, map_units, substream, tile_buffers, tile_rows

# Time integrals below this are degenerate: the exact event has probability
# zero, so reaching the floor is a float pathology, and it ends the run.
_TIME_INTEGRAL_FLOOR = 1e-12

# Values per generation batch (draws per path times paths), about 16 MiB.
# A batch is the stream key: batch b draws from substream(base_seed, role, b).
_BATCH_VALUES = 1 << 21

# Smallest grid either sampler accepts.  Q at grid m is a quadratic form in
# m - 1 Gaussians, so E[Q^-2], which K2's standard error needs, is finite
# only when m - 1 > 4; below that the reported se means nothing.  On
# coarser grids Q also falls under the floor too often to be a float
# pathology: about once in 10^6 paths at m = 2.
_MIN_GRID = 8

# Eigenpairs drawn per path.  Putting the rest at their mean moves E[1/Q] at
# m = 4096 by about -3.5e-5, forty times less than the grid's own bias.
_TERMS = 64


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
        raise DegeneratePathError(f"time integral {q:.3g} below {_TIME_INTEGRAL_FLOOR}")
    i_aa = ito_integral(path.wa, path.dwa)
    i_ab = ito_integral(path.wa, path.dwb)
    num = (p.rho * p.sigma_omega * i_aa + p.sigma_theta * i_ab) ** 2
    return {
        "fpe_limit_draw": path.wa[-1] ** 2 * num / q**2,
        "mse_limit_draw": num / (p.lam**2 * q**2),
    }


@lru_cache(maxsize=8)
def _spectrum(m: int, terms: int) -> tuple[np.ndarray, np.ndarray, float, float]:
    """(a, c, q_tail, x_tail) of the grid-m walk's first ``terms``
    eigenpairs: Q = sum_j a_j w_j^2 + q_tail and sqrt(m) W(1) = sum_j c_j
    w_j + x_tail g + z_m.  The arrays are read-only, since calls share them."""
    k = m - 1
    angle = (2 * np.arange(1, terms + 1) - 1) * (math.pi / (2 * (2 * k + 1)))
    lam = 0.25 / np.sin(angle) ** 2
    c = np.sqrt(lam * (4 / (2 * k + 1))) * np.abs(np.sin(2 * k * angle))
    q_tail = (k * (k + 1) / 2 - float(lam.sum())) / m**2 if terms < k else 0.0
    x_tail = math.sqrt(k - float(np.dot(c, c))) if terms < k else 0.0
    a = lam / m**2
    a.flags.writeable = c.flags.writeable = False
    return a, c, q_tail, x_tail


def _constant_draws(m: int, w: np.ndarray, g, z_m, chi_sq) -> tuple[np.ndarray, ...]:
    """(Q, W(1), I_aa) at grid m of paths with coordinates ``w`` (one row
    each), tail normal ``g``, last increment ``z_m`` and tail chi-square."""
    a, c, q_tail, x_tail = _spectrum(m, w.shape[1])
    q = np.einsum("ij,ij,j->i", w, w, a) + q_tail
    w1 = (np.einsum("ij,j->i", w, c) + x_tail * g + z_m) / math.sqrt(m)
    sum_sq = (np.einsum("ij,ij->i", w, w) + chi_sq + z_m**2) / m
    return q, w1, 0.5 * (w1**2 - sum_sq)


def _batch(terms: int, draws: tuple, rows: int, tile: int, reps: int, base_seed: int,
           role: int, score, batch: int) -> np.ndarray:
    """Values of batch ``batch`` of ``rows`` paths, ``score(w, *per_path)``
    -> (Q, values); the first path with Q under the floor raises
    DegeneratePathError, and its values are never read."""
    start = batch * rows
    q, values = _scored(substream(base_seed, role, batch), min(rows, reps - start), terms,
                        draws, tile, score)
    low = np.flatnonzero(q < _TIME_INTEGRAL_FLOOR)
    if len(low):
        raise DegeneratePathError(
            f"path {start + int(low[0])}: time integral {q[low[0]]:.3g} "
            f"below {_TIME_INTEGRAL_FLOOR}"
        )
    return values


def _scored(rng, paths: int, terms: int, draws: tuple, tile: int, score):
    """``score`` -> (Q, values) of ``paths`` paths from ``rng``: each path's
    ``draws`` (None: a normal, else a chi-square on that many degrees, 0 on
    0), then its ``terms`` coordinates, ``tile`` rows at a time."""
    per_path = [rng.standard_normal(paths) if dof is None else
                rng.chisquare(dof, paths) if dof else np.zeros(paths) for dof in draws]
    (w,) = tile_buffers(((tile, terms), float))
    scores = []
    for lo in range(0, paths, tile):
        wt = w[: min(tile, paths - lo)]
        rng.standard_normal(out=wt)
        scores.append(score(wt, *(x[lo : lo + len(wt)] for x in per_path)))
    qs, values = zip(*scores)
    return np.concatenate(qs), np.concatenate(values, axis=1)


def _sampled(m, extra, reps, base_seed, role, score, workers) -> np.ndarray:
    """Values of ``reps`` grid-m paths, whose scalars are the tail
    chi-square, g, z_m and ``extra`` (a ``_scored`` draw)."""
    terms = min(_TERMS, m - 1)
    draws = (m - 1 - terms, None, None, extra)
    width = terms + len(draws)
    rows = min(max(1, _BATCH_VALUES // width), reps)
    # half a tile of draws: as fast as a whole one, and half the memory
    work = partial(_batch, terms, draws, rows, tile_rows(rows, 2 * width), reps, base_seed,
                   role, score)
    return np.concatenate(map_units(work, range(-(-reps // rows)), workers), axis=1)


def _limit_score(p: LimitParams, m: int, w: np.ndarray, chi_sq, g, z_m, u):
    """(Q, [fpe draws, mse draws]) of grid-m paths; I_ab = sqrt(Q) u."""
    q, w1, i_aa = _constant_draws(m, w, g, z_m, chi_sq)
    num = (p.rho * p.sigma_omega * i_aa + p.sigma_theta * np.sqrt(q) * u) ** 2
    q_sq = q**2
    return q, np.stack((w1**2 * num / q_sq, num / (p.lam**2 * q_sq)))


def limit_sample_batch(
    p: LimitParams, m: int, reps: int, base_seed: int,
    workers: int | Executor | None = None,
) -> dict:
    """Vectorized limit_sample over ``reps`` paths.  Batches run over
    ``workers``, an open pool or a process count (None: the usable cores),
    with equal bits.  ``resampled`` is always 0, since no path is redrawn;
    it stays only because bench/ reads it, until ROADMAP item 1 drops that
    read."""
    if m < _MIN_GRID:
        raise ConfigError([f"grid size m must be >= {_MIN_GRID}, got {m}"])
    if reps < 1:
        raise ConfigError([f"reps must be >= 1, got {reps}"])
    draws = _sampled(m, None, reps, base_seed, ROLE_BM, partial(_limit_score, p, m), workers)
    return {"fpe_limit_draw": draws[0], "mse_limit_draw": draws[1], "resampled": 0}


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
    k1_gap: float  # |K1(m) - K1(2m)| on common draws
    k2_gap: float

    def as_dict(self) -> dict:
        """JSON-ready nested dict; keys follow field order."""
        return asdict(self)


def estimate_constants(
    m: int = 1 << 12, reps: int = 200_000, base_seed: int = 0,
    workers: int | Executor | None = None,
) -> ConstantsReport:
    """Monte Carlo estimates of K1 = E[(I/Q)^2] and K2 = E[1/Q] at grids m
    and 2m on common draws, so the (m, 2m) gap is a matched discretization
    measurement, not two noisy runs.  Bits are equal whatever ``workers``."""
    if m < _MIN_GRID:
        raise ConfigError([f"grid size m must be >= {_MIN_GRID}, got {m}"])
    if reps < 2:
        raise ConfigError([f"reps must be >= 2, got {reps}"])
    draws = _sampled(m, m, reps, base_seed, ROLE_CONSTANTS, partial(_constants_score, m),
                     workers)
    means = draws.mean(axis=1)
    draws -= means[:, None]
    ses = np.sqrt(np.square(draws, out=draws).mean(axis=1) / (reps - 1))
    estimates = [
        ConstantEstimate(name, float(mean), float(se), grid, reps, base_seed, "estimated")
        for name, mean, se, grid in zip(("K1", "K2") * 2, means, ses, (m, m, 2 * m, 2 * m))
    ]
    gaps = (abs(float(gap)) for gap in means[:2] - means[2:])
    return ConstantsReport(m, reps, base_seed, *estimates, *gaps)


def _constants_score(m: int, w: np.ndarray, chi_sq, g, z_m, chi_sq_extra):
    """(min Q, [K1, K2 at m, K1, K2 at 2m]): w, g and z_m feed both spectra,
    and the fine tail's chi-square adds ``chi_sq_extra``, on m degrees."""
    qs, draws = [], []
    for grid, tail in ((m, chi_sq), (2 * m, chi_sq + chi_sq_extra)):
        q, _, i_aa = _constant_draws(grid, w, g, z_m, tail)
        qs.append(q)
        draws += [(i_aa / q) ** 2, 1.0 / q]
    return np.minimum(*qs), np.stack(draws)


def mse_limit_formula(
    p: LimitParams,
    k1: float = CANONICAL_K1.value,
    k2: float = CANONICAL_K2.value,
) -> float:
    """Limit of n^2 E(beta_hat - beta)^2 implied by (K1, K2) and the scales."""
    return (p.rho**2 / p.iota_sq) * k1 + (
        p.sigma_theta**2 / (p.iota_sq * p.sigma_omega**2)
    ) * k2
