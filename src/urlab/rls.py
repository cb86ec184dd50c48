"""Streaming least squares through the origin, with per-path error scores.

The estimator after absorbing pairs (x_1, y_2) .. (x_k, y_{k+1}) is

    beta_hat = (sum x_i y_{i+1}) / (sum x_i^2),

maintained as running compensated sums.  Predictions are scored strictly
causally: the pair being predicted is absorbed only after its error is
recorded, and scoring starts at the second usable pair (the estimate must
exist before it can predict).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NotStartedError, PathTooShortError
from .linear_process import Trajectory


class NeumaierSum:
    """Compensated running sum (Neumaier's variant of Kahan).

    The design energy sum x^2 grows like n^2 while late increments stay
    O(n), and the APE mixes magnitudes across the whole path, so a plain
    float accumulator would shed low bits exactly where the batch/recursive
    equality is asserted.
    """

    __slots__ = ("_sum", "_comp")

    def __init__(self) -> None:
        self._sum = 0.0
        self._comp = 0.0

    def add(self, value: float) -> None:
        t = self._sum + value
        if abs(self._sum) >= abs(value):
            self._comp += (self._sum - t) + value
        else:
            self._comp += (value - t) + self._sum
        self._sum = t

    @property
    def value(self) -> float:
        return self._sum + self._comp


@dataclass(eq=False)
class RlsState:
    """Single-owner accumulator; one instance per path."""

    def __post_init__(self) -> None:
        self._s_xx = NeumaierSum()
        self._s_xy = NeumaierSum()
        self._ape = NeumaierSum()
        self._sse_eps = NeumaierSum()
        self.i = 0          # pairs absorbed
        self.n_scored = 0   # predictions actually scored
        self.started = False

    @property
    def s_xx(self) -> float:
        return self._s_xx.value

    @property
    def ape(self) -> float:
        return self._ape.value

    @property
    def sse_eps(self) -> float:
        return self._sse_eps.value

    @property
    def beta_hat(self) -> float:
        if not self.started:
            raise NotStartedError("no informative pair absorbed yet (all x were 0)")
        return self._s_xy.value / self._s_xx.value

    def update(self, x_i: float, y_next: float) -> None:
        """Absorb one pair in time order."""
        self._s_xx.add(x_i * x_i)
        self._s_xy.add(x_i * y_next)
        self.i += 1
        if self._s_xx.value > 0.0:
            self.started = True

    def predict(self, x_n: float) -> float:
        """One-step prediction x_n * beta_hat; requires a started state."""
        return x_n * self.beta_hat

    def step(self, x_i: float, y_next: float, eps_next: float | None = None) -> None:
        """Score the incoming pair against the current estimate, then absorb it.

        The first absorbed pair is never scored (no estimate exists), so on
        a path with x_1 != 0 the first scored response is y_3.  eps_next
        feeds the oracle side-channel sum of eps^2 over exactly the scored
        terms; it is only available in simulation mode.
        """
        if self.started:
            e = y_next - self.predict(x_i)
            self._ape.add(e * e)
            self.n_scored += 1
            if eps_next is not None:
                self._sse_eps.add(eps_next * eps_next)
        self.update(x_i, y_next)


@dataclass(frozen=True)
class PathStats:
    """Per-path error statistics, one JSON row per path."""

    ape: float
    excess_ape: float
    fpe_stat: float
    norm_est_sq: float
    x_n_sq_over_n: float
    beta_hat_final: float


def run_path(traj: Trajectory) -> PathStats:
    """Feed a trajectory's pairs through one RlsState and score it.

    Pairs i = 1..n-1 are absorbed; the estimate after pair n-1 is the
    final beta_hat.  The closing regressor x_n enters only through the
    normalized statistics.
    """
    st = RlsState()
    n = traj.n
    x, y, eps = traj.x, traj.y, traj.epsilon
    for i in range(1, n):
        # pair i = (x_i, y_{i+1}); y_{i+1} is stored at y[i-1]
        st.step(float(x[i]), float(y[i - 1]), float(eps[i - 1]))
    if st.n_scored == 0:
        raise PathTooShortError(
            f"no scoreable prediction in {st.i} pairs (started={st.started})"
        )
    d = st.beta_hat - traj.beta
    norm_est_sq = (n * d) ** 2
    x_n_sq_over_n = float(x[n]) ** 2 / n
    return PathStats(
        ape=st.ape,
        excess_ape=st.ape - st.sse_eps,
        fpe_stat=x_n_sq_over_n * norm_est_sq,
        norm_est_sq=norm_est_sq,
        x_n_sq_over_n=x_n_sq_over_n,
        beta_hat_final=st.beta_hat,
    )
