"""Paired innovation sequences (omega_t, epsilon_t).

The regression noise epsilon_t is built as

    epsilon_t = rho * omega_t + theta_t,    rho = pi / sigma_omega_sq,

with theta_t drawn independently of every omega at variance
sigma_theta_sq = sigma_sq - rho^2 * sigma_omega_sq.  This realizes the
required covariance E(epsilon_t omega_t) = pi while keeping epsilon_t
independent of all past omegas by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, Validated

FAMILIES = ("gaussian", "laplace", "uniform")

# Relative slack for the Cauchy-Schwarz bound so that a config written as
# pi = sigma * sigma_omega (full correlation) survives float rounding.
_CS_SLACK = 1e-12


@dataclass(frozen=True)
class InnovationSpec(Validated):
    """Joint law of one (omega_t, epsilon_t) pair."""

    sigma_omega_sq: float = 1.0
    sigma_sq: float = 1.0
    pi: float = 0.0
    family: str = "gaussian"

    def problems(self) -> list[str]:
        """Every violated constraint, empty when the parameters are valid."""
        out = []
        if not (self.sigma_omega_sq > 0.0):
            out.append(f"sigma_omega_sq must be > 0, got {self.sigma_omega_sq}")
        if not (self.sigma_sq > 0.0):
            out.append(f"sigma_sq must be > 0, got {self.sigma_sq}")
        if self.sigma_omega_sq > 0.0 and self.sigma_sq > 0.0:
            bound = self.sigma_sq * self.sigma_omega_sq
            if self.pi**2 > bound * (1.0 + _CS_SLACK):
                out.append(
                    "pi^2 <= sigma_sq * sigma_omega_sq violated "
                    f"(Cauchy-Schwarz): pi^2 = {self.pi ** 2:.6g} > {bound:.6g}"
                )
        if self.family not in FAMILIES:
            out.append(f"family must be one of {FAMILIES}, got {self.family!r}")
        return out


def derived_correlation(spec: InnovationSpec) -> tuple[float, float]:
    """Return (rho, sigma_theta_sq) for a valid spec.

    sigma_theta_sq is clamped at 0 so that a spec sitting exactly on the
    Cauchy-Schwarz boundary does not go negative by round-off.
    """
    rho = spec.pi / spec.sigma_omega_sq
    sigma_theta_sq = spec.sigma_sq - rho**2 * spec.sigma_omega_sq
    if sigma_theta_sq <= _CS_SLACK * spec.sigma_sq:
        # inside the admission slack means on the boundary, not near it
        return rho, 0.0
    return rho, sigma_theta_sq


def _standardized(rng: np.random.Generator, family: str, size) -> np.ndarray:
    """Zero-mean, unit-variance draws from the configured family."""
    if family == "gaussian":
        return rng.standard_normal(size)
    if family == "laplace":
        # var = 2 b^2, so b = 1/sqrt(2) standardizes
        return rng.laplace(0.0, 1.0 / math.sqrt(2.0), size)
    if family == "uniform":
        h = math.sqrt(3.0)  # var of U(-h, h) is h^2/3
        return rng.uniform(-h, h, size)
    raise ConfigError([f"family must be one of {FAMILIES}, got {family!r}"])


def _scaled_pairs(
    spec: InnovationSpec, z: np.ndarray, out: tuple[np.ndarray, np.ndarray] | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """(omega, epsilon) from standardized draws z[..., 0:2]: omega scales
    the first, and epsilon adds rho * omega to the scaled second.  z[..., 1]
    is scaled in place; given ``out``, two buffers shaped like z[..., 0],
    omega and epsilon are written there, so nothing is allocated."""
    rho, sigma_theta_sq = derived_correlation(spec)
    omega, epsilon = out or (None, None)
    omega = np.multiply(z[..., 0], math.sqrt(spec.sigma_omega_sq), out=omega)
    epsilon = np.multiply(omega, rho, out=epsilon)
    epsilon += np.multiply(z[..., 1], math.sqrt(sigma_theta_sq), out=z[..., 1])
    return omega, epsilon


def draw_pairs(
    rng: np.random.Generator, spec: InnovationSpec, count: int
) -> tuple[np.ndarray, np.ndarray]:
    """Draw ``count`` i.i.d. (omega, epsilon) pairs as two aligned arrays.

    Pairs are drawn in interleaved order (omega_1, theta_1, omega_2, ...),
    so a loop of single-pair calls on the same stream state reproduces the
    vectorized draws bit for bit.
    """
    return _scaled_pairs(spec, _standardized(rng, spec.family, (count, 2)))

