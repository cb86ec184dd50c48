"""MA filter construction and path generation.

The regressor is the linear process

    x_t = varsigma x_{t-1} + eta_t,    eta_t = sum_{j=0}^{min(t-1, L)} c_j omega_{t-j},

with x_0 = 0 and no pre-sample omegas invented: the convolution runs only
over lags that exist.  varsigma = 1 is the integrated regressor; with
|varsigma| < 1, the stationary contrast, a path starts after a burn-in of
``stationary_burn_in(varsigma)`` steps.  The filter menu (finite,
geometric, polynomial) has closed-form coefficient sums, so truncation
error is controlled exactly rather than estimated.

scipy is imported only where it is needed: ``scipy.special`` for the
polynomial family's zeta sums, ``scipy.signal`` by the scalar oracles
``generate_path`` and ``decompose`` alone.  The batch engine runs the MA
filter and the recursion, a running sum at the unit root and an AR(1) in
the stationary contrast, as one block-Toeplitz kernel in ``monte_carlo``,
which matches ``scipy.signal.lfilter`` to rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigError, ReconstructionError, Validated
from .innovations import InnovationSpec, draw_pairs

FILTER_FAMILIES = ("finite", "geometric", "polynomial")

# The shape parameters each family reads; setting another one is an error.
_READS = {"finite": ("coeffs",), "geometric": ("a", "r"), "polynomial": ("a", "p")}

# |sum c_j| below this is treated as "filter sums to zero": the regressor
# would lose its unit-root scale and every normalization downstream breaks.
_THETA_FLOOR = 1e-6

_DEFAULT_TAIL_TOL = 1e-8

# Largest working lag of any filter, 80 MB of taps.  A spec that asks for
# or needs more is refused when the config is parsed, before any taps
# are allocated.
_MAX_LAG = 10_000_000


@dataclass(frozen=True)
class FilterSpec(Validated):
    """Declarative description of the MA coefficient family.

    family "finite":     c_j given directly as ``coeffs``.
    family "geometric":  c_j = a * r**j with |r| < 1.
    family "polynomial": c_j = a * (j+1)**(-p) with p > 2.

    A parameter of another family is refused.  ``truncation_lag`` is a
    lower bound on the working lag L of the two infinite families; L is
    the smallest lag at or above it with sum_{j>L} |c_j| <= tail_tol *
    |theta|.  For every family ``truncation_lag`` and L are at most
    _MAX_LAG: a spec that asks for more is refused here, and one that
    needs more when materialized.
    """

    family: str = "finite"
    coeffs: tuple[float, ...] | None = None
    a: float | None = None
    r: float | None = None
    p: float | None = None
    truncation_lag: int = 0
    tail_tol: float = _DEFAULT_TAIL_TOL

    def problems(self) -> list[str]:
        if self.family not in FILTER_FAMILIES:
            return [f"filter family must be one of {FILTER_FAMILIES}, got {self.family!r}"]
        others = [key for key in ("coeffs", "a", "r", "p") if key not in _READS[self.family]]
        unread = [key for key in others if getattr(self, key) is not None]
        out = [f"{self.family} filter does not read {', '.join(unread)}"] if unread else []
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
        if not 0 <= self.truncation_lag <= _MAX_LAG:
            out.append(
                f"truncation_lag must be >= 0 and <= {_MAX_LAG}, got {self.truncation_lag}"
            )
        return out

    def __post_init__(self):
        if self.coeffs is not None and not isinstance(self.coeffs, tuple):
            object.__setattr__(self, "coeffs", tuple(float(c) for c in self.coeffs))
        super().__post_init__()


@dataclass(frozen=True, eq=False)
class Filter:
    """Materialized filter: working coefficients plus closed-form sums.

    ``theta`` comes from the family closed form (the full infinite
    series), while ``coeffs`` holds the truncated working taps c_0..c_L.
    The gap between the two is bounded by ``tail_bound``, itself at most
    tail_tol * |theta|.
    """

    spec: FilterSpec
    coeffs: np.ndarray
    theta: float
    tail_bound: float

    def __post_init__(self):
        self.coeffs.setflags(write=False)

    def truncated_partial_sums(self) -> tuple[float, np.ndarray]:
        """(theta, tails) of the truncated series itself, with tails[j] =
        c_{j+1} + ... + c_L.

        Computed as suffix sums of the working taps, so the identity
        N_t - S_t = x_t holds exactly for the simulated (truncated)
        process; its theta differs from the closed form by at most
        tail_bound.
        """
        suffix = np.cumsum(self.coeffs[::-1])[::-1]
        return float(suffix[0]), np.append(suffix[1:], 0.0)


def _lag(tail, tol_abs: float, lo: int) -> int:
    """Smallest lag L >= lo with tail(L) <= tol_abs, for a decreasing
    ``tail``: double, then bisect.  Raises ConfigError when that lag
    would pass _MAX_LAG."""
    hi = max(lo, 1)
    while tail(hi) > tol_abs:
        if hi >= _MAX_LAG:
            raise ConfigError([f"filter needs a lag above {_MAX_LAG} to meet tail_tol"])
        hi = min(2 * hi, _MAX_LAG)
    while lo < hi:
        mid = (lo + hi) // 2
        if tail(mid) <= tol_abs:
            hi = mid
        else:
            lo = mid + 1
    return lo


@lru_cache(maxsize=16)
def materialize_filter(spec: FilterSpec) -> Filter:
    """Resolve a FilterSpec into working taps and closed-form sums.

    Cached per (frozen, hashable) spec, so callers share one Filter whose
    arrays are read-only.  Each infinite family gives theta, the tail
    bound tail(L) = sum_{j>L} |c_j| and the taps c_j, and ``_lag`` sizes
    both.  Raises ConfigError when the coefficient sum theta is
    numerically zero or the lag would pass _MAX_LAG.
    """
    if spec.family == "finite":
        coeffs = np.asarray(spec.coeffs, dtype=float)
        theta = math.fsum(coeffs)
        _check_theta(theta)
        return Filter(spec, coeffs, theta, 0.0)

    a = spec.a
    if spec.family == "geometric":
        r = spec.r
        theta = a / (1.0 - r)
        tail = lambda lag: abs(a) * abs(r) ** (lag + 1) / (1.0 - abs(r))
        coeff = lambda j: a * r ** j.astype(float)
    else:
        from scipy import special

        p = spec.p
        theta = a * float(special.zeta(p, 1))
        tail = lambda lag: abs(a) * float(special.zeta(p, lag + 2))
        coeff = lambda j: a * (j + 1.0) ** (-p)
    _check_theta(theta)
    lag = _lag(tail, spec.tail_tol * abs(theta), spec.truncation_lag)
    return Filter(spec, coeff(np.arange(lag + 1)), theta, tail(lag))


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
    from scipy import signal

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
    from scipy import signal

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

