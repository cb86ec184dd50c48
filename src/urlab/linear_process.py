"""MA filter construction and unit-root path generation.

The regressor is the integrated linear process

    x_t = x_{t-1} + eta_t,    eta_t = sum_{j=0}^{min(t-1, L)} c_j omega_{t-j},

with x_0 = 0 and no pre-sample omegas invented: the convolution runs only
over lags that exist.  The filter menu (finite, geometric, polynomial) has
closed-form coefficient sums, so truncation error is controlled exactly
rather than estimated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import signal, special

from .errors import ConfigError, ReconstructionError, Validated
from .innovations import InnovationSpec, draw_pairs

FILTER_FAMILIES = ("finite", "geometric", "polynomial")

# |sum c_j| below this is treated as "filter sums to zero": the regressor
# would lose its unit-root scale and every normalization downstream breaks.
_THETA_FLOOR = 1e-6

_DEFAULT_TAIL_TOL = 1e-8

# Hard cap for automatic truncation growth; hit only by near-pathological
# (a, r) or (a, p) combinations, and better reported than looped forever.
_MAX_LAG = 10_000_000


@dataclass(frozen=True)
class FilterSpec(Validated):
    """Declarative description of the MA coefficient family.

    family "finite":     c_j given directly as ``coeffs``.
    family "geometric":  c_j = a * r**j with |r| < 1.
    family "polynomial": c_j = a * (j+1)**(-p) with p > 2.

    ``truncation_lag`` is a lower bound on the working lag L; it is raised
    automatically until sum_{j>L} |c_j| <= tail_tol * |theta|.
    """

    family: str = "finite"
    coeffs: tuple[float, ...] | None = None
    a: float | None = None
    r: float | None = None
    p: float | None = None
    truncation_lag: int = 0
    tail_tol: float = _DEFAULT_TAIL_TOL

    def problems(self) -> list[str]:
        out = []
        if self.family not in FILTER_FAMILIES:
            out.append(f"filter family must be one of {FILTER_FAMILIES}, got {self.family!r}")
            return out
        if self.family == "finite":
            if not self.coeffs:
                out.append("finite filter requires a non-empty coeffs list")
        elif self.family == "geometric":
            if self.a is None or self.r is None:
                out.append("geometric filter requires parameters a and r")
            elif not abs(self.r) < 1.0:
                out.append(
                    f"filter not absolutely summable: geometric ratio |r| = {abs(self.r)} >= 1"
                )
        else:  # polynomial
            if self.a is None or self.p is None:
                out.append("polynomial filter requires parameters a and p")
            elif not self.p > 2.0:
                out.append(f"polynomial decay requires p > 2, got {self.p}")
        if not self.tail_tol > 0.0:
            out.append(f"tail_tol must be > 0, got {self.tail_tol}")
        if self.truncation_lag < 0:
            out.append(f"truncation_lag must be >= 0, got {self.truncation_lag}")
        return out

    def __post_init__(self):
        if self.coeffs is not None and not isinstance(self.coeffs, tuple):
            object.__setattr__(self, "coeffs", tuple(float(c) for c in self.coeffs))
        super().__post_init__()


@dataclass(frozen=True, eq=False)
class Filter:
    """Materialized filter: working coefficients plus closed-form sums.

    ``theta`` and ``tails`` come from the family closed forms (the full
    infinite series), while ``coeffs`` holds the truncated working taps
    c_0..c_L.  The gap between the two is bounded by ``tail_bound``,
    itself at most tail_tol * |theta|.
    """

    spec: FilterSpec
    coeffs: np.ndarray
    theta: float
    tails: np.ndarray
    tail_bound: float

    def __post_init__(self):
        self.coeffs.setflags(write=False)
        self.tails.setflags(write=False)

    @property
    def lag(self) -> int:
        return len(self.coeffs) - 1

    def truncated_partial_sums(self) -> tuple[float, np.ndarray]:
        """(theta, tails) of the truncated series itself.

        Computed as suffix sums of the working taps, so the identity
        N_t - S_t = x_t holds exactly for the simulated (truncated)
        process; the closed-form fields differ by at most tail_bound.
        """
        return _suffix_sums(self.coeffs)


def _suffix_sums(coeffs: np.ndarray) -> tuple[float, np.ndarray]:
    """(sum of all taps, tails) with tails[j] = c_{j+1} + ... + c_L."""
    suffix = np.cumsum(coeffs[::-1])[::-1]
    return float(suffix[0]), np.append(suffix[1:], 0.0)


def _geometric_lag(a: float, r: float, tol_abs: float, lo: int) -> int:
    # tail(L) = |a| |r|^(L+1) / (1 - |r|)
    q = abs(r)
    if a == 0.0:
        return lo
    lhs = tol_abs * (1.0 - q) / abs(a)
    if lhs >= q:  # L = 0 already suffices
        need = 0
    else:
        need = max(0, math.ceil(math.log(lhs) / math.log(q)) - 1)
        while abs(a) * q ** (need + 1) / (1.0 - q) > tol_abs:
            need += 1
    return max(lo, need)


def _polynomial_lag(a: float, p: float, tol_abs: float, lo: int) -> int:
    # tail(L) = |a| * zeta(p, L+2), decreasing in L; double then bisect
    # to the smallest satisfying lag.
    def tail(lag):
        return abs(a) * float(special.zeta(p, lag + 2))

    hi = max(lo, 1)
    while tail(hi) > tol_abs:
        hi *= 2
        if hi > _MAX_LAG:
            raise ConfigError(
                [f"truncation lag exceeded {_MAX_LAG} before meeting tail_tol"]
            )
    lo_b = lo
    while lo_b < hi:
        mid = (lo_b + hi) // 2
        if tail(mid) <= tol_abs:
            hi = mid
        else:
            lo_b = mid + 1
    return lo_b


@lru_cache(maxsize=16)
def materialize_filter(spec: FilterSpec) -> Filter:
    """Resolve a FilterSpec into working taps and closed-form sums.

    Cached per (frozen, hashable) spec, so callers share one Filter whose
    arrays are read-only.  Raises ConfigError when the coefficient sum
    theta is numerically zero.
    """
    if spec.family == "finite":
        coeffs = np.asarray(spec.coeffs, dtype=float)
        theta = math.fsum(coeffs)
        _check_theta(theta)
        _, tails = _suffix_sums(coeffs)
        return Filter(spec, coeffs, theta, tails, 0.0)

    if spec.family == "geometric":
        a, r = spec.a, spec.r
        theta = a / (1.0 - r)
        _check_theta(theta)
        lag = _geometric_lag(a, r, spec.tail_tol * abs(theta), spec.truncation_lag)
        j = np.arange(lag + 1)
        coeffs = a * r**j.astype(float)
        tails = a * r ** (j + 1.0) / (1.0 - r)
        bound = abs(a) * abs(r) ** (lag + 1) / (1.0 - abs(r))
        return Filter(spec, coeffs, theta, tails, bound)

    a, p = spec.a, spec.p
    theta = a * float(special.zeta(p, 1))
    _check_theta(theta)
    lag = _polynomial_lag(a, p, spec.tail_tol * abs(theta), spec.truncation_lag)
    j = np.arange(lag + 1)
    coeffs = a * (j + 1.0) ** (-p)
    tails = a * special.zeta(p, j + 2.0)
    bound = abs(a) * float(special.zeta(p, lag + 2))
    return Filter(spec, coeffs, theta, np.asarray(tails, dtype=float), bound)


def _check_theta(theta: float) -> None:
    if abs(theta) < _THETA_FLOOR:
        raise ConfigError([f"filter sums to zero: |theta| = {abs(theta):.3g} < {_THETA_FLOOR}"])


@dataclass(eq=False)
class Trajectory:
    """One simulated path.

    Array alignment (0-based storage of 1-based series):
      omega[k]   = omega_{k+1},    k = 0..n-1
      epsilon[k] = epsilon_{k+2},  k = 0..n-1   (epsilon_2 .. epsilon_{n+1})
      eta[k]     = eta_{k+1}
      x[k]       = x_k,            k = 0..n
      y[k]       = y_{k+2}                      (y_2 .. y_{n+1})

    Regression pair i = (x_i, y_{i+1}) is (x[i], y[i-1]) in storage.
    """

    n: int
    omega: np.ndarray
    epsilon: np.ndarray
    eta: np.ndarray
    x: np.ndarray
    y: np.ndarray
    beta: float
    varsigma: float = 1.0


def stationary_burn_in(varsigma: float) -> int:
    """Presample length 10 * ceil(1 / (1 - |varsigma|)) discarded in
    stationary mode; geometric mixing makes the residual bias negligible."""
    if varsigma == 1.0:
        return 0
    # nudge below the ceiling so 1/(1 - 0.9) = 10.000000000000002 rounds to 10
    return 10 * math.ceil(1.0 / (1.0 - abs(varsigma)) - 1e-9)


def generate_path(
    filt: Filter,
    innov: InnovationSpec,
    beta: float,
    n: int,
    rng: np.random.Generator,
    varsigma: float = 1.0,
) -> Trajectory:
    """Simulate one trajectory of length n.

    varsigma = 1 is the unit-root model (x_0 = 0, no burn-in); |varsigma| < 1
    replaces the accumulation by x_t = varsigma * x_{t-1} + eta_t and
    discards a burn-in so the reported path starts near stationarity.
    """
    if n < 2:
        raise ConfigError([f"need n >= 2, got {n}"])
    if not (abs(varsigma) < 1.0 or varsigma == 1.0):
        raise ConfigError([f"varsigma must satisfy |varsigma| < 1 or = 1, got {varsigma}"])
    burn = stationary_burn_in(varsigma)
    total = burn + n + 1  # one extra pair supplies epsilon_{n+1}
    om, eps = draw_pairs(rng, innov, total)
    # the last omega exists only as epsilon_{n+1}'s contemporaneous partner
    eta = signal.lfilter(filt.coeffs, [1.0], om[:-1])
    if varsigma == 1.0:
        xs = np.cumsum(eta)
    else:
        xs = signal.lfilter([1.0], [1.0, -varsigma], eta)
    if burn == 0:
        x = np.concatenate(([0.0], xs))
    else:
        x = xs[burn - 1 :]
    y = beta * x[1:] + eps[burn + 1 :]
    return Trajectory(
        n=n,
        omega=om[burn:-1],
        epsilon=eps[burn + 1 :],
        eta=eta[burn:],
        x=x,
        y=y,
        beta=beta,
        varsigma=varsigma,
    )


def decompose(traj: Trajectory, filt: Filter) -> tuple[np.ndarray, np.ndarray]:
    """Split x_t into the scaled random walk N_t minus the remainder S_t.

        N_t = theta * (omega_1 + ... + omega_t),
        S_t = sum_{j=0}^{t-1} f_j omega_{t-j},  f_j = sum_{l > j} c_l.

    Uses the truncated series' own partial sums so N_t - S_t reproduces
    x_t to round-off; a residual above tolerance means the filter does
    not match the trajectory.
    """
    theta_t, tails_t = filt.truncated_partial_sums()
    nmat = theta_t * np.cumsum(traj.omega)
    smat = signal.lfilter(tails_t, [1.0], traj.omega)
    scale = max(1.0, float(np.max(np.abs(traj.x))))
    resid = np.max(np.abs(nmat - smat - traj.x[1:]))
    if resid > 1e-9 * scale:
        raise ReconstructionError(
            f"N - S misses x by {resid:.3g} (relative {resid / scale:.3g}); "
            "filter/trajectory mismatch"
        )
    return nmat, smat

