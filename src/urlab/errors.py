"""Exception types shared across the package."""

import math
from dataclasses import fields


class ConfigError(ValueError):
    """Invalid model or experiment configuration.

    ``problems`` carries every violated constraint, not just the first,
    so config files can be fixed in one pass.
    """

    def __init__(self, problems):
        if isinstance(problems, str):
            problems = [problems]
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


class Validated:
    """Base of the validated frozen dataclasses: construction raises one
    ConfigError carrying every problem ``problems()`` reports, after a NaN
    or infinity in any float or float-tuple field."""

    def __post_init__(self):
        problems = []
        for f in fields(self):
            value = getattr(self, f.name)
            for v in value if isinstance(value, tuple) else (value,):
                if isinstance(v, float) and not math.isfinite(v):
                    problems.append(f"{f.name} must be finite, got {v}")
                    break
        problems += self.problems()
        if problems:
            raise ConfigError(problems)


class NotStartedError(RuntimeError):
    """Prediction requested before the estimator has absorbed any
    informative pair (all x seen so far were zero)."""


class PathTooShortError(RuntimeError):
    """Fewer than two usable regression pairs: no prediction can be scored."""


class ReconstructionError(RuntimeError):
    """Martingale/remainder split failed to reproduce the regressor path,
    usually because the filter does not match the trajectory."""


class DegenerateRateError(RuntimeError):
    """Too many finite-n paths on which no prediction can be scored: the
    model itself cannot be scored, so resampling would not end."""


class ResamplePathError(RuntimeError):
    """Brownian path with a numerically degenerate time integral; the
    caller should draw a replacement path from a tagged substream."""
