"""Exception types shared across the package."""

import math
from dataclasses import fields
from numbers import Integral, Real


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


# The integer and float annotations, as ``from __future__ import
# annotations`` keeps them, and what a field of each must hold.
_INTEGER_FIELDS = {"int": "an integer", "tuple[int, ...]": "a tuple of integers"}
_REAL_FIELDS = {
    "float": "a number",
    "float | None": "a number or None",
    "tuple[float, ...] | None": "a tuple of numbers or None",
}


class Validated:
    """Base of the validated frozen dataclasses: construction raises one
    ConfigError carrying every problem ``problems()`` reports, after a
    non-integral value in any int or int-tuple field, a non-number in any
    float or float-tuple field and a NaN or infinity in any of the latter.
    Integral values of any integer type, numpy's included, are stored as
    int; ``problems()`` compares them as numbers, so it runs only once
    every numeric field holds numbers and every integer field an int."""

    def __post_init__(self):
        problems, numeric = [], True
        for f in fields(self):
            value = getattr(self, f.name)
            values = value if isinstance(value, tuple) else (value,)
            real = f.type in _REAL_FIELDS and value is not None
            if real and not all(isinstance(v, Real) for v in values):
                problems.append(f"{f.name} must be {_REAL_FIELDS[f.type]}, got {value!r}")
                numeric = False
                continue
            if f.type in _INTEGER_FIELDS:
                if not all(isinstance(v, Integral) for v in values):
                    problems.append(f"{f.name} must be {_INTEGER_FIELDS[f.type]}, got {value!r}")
                    numeric = False
                    continue
                ints = tuple(map(int, values))
                object.__setattr__(self, f.name, ints if isinstance(value, tuple) else ints[0])
            for v in values:
                if isinstance(v, float) and not math.isfinite(v):
                    problems.append(f"{f.name} must be finite, got {v}")
                    break
        if numeric:
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
    """Brownian path with a numerically degenerate time integral, raised by
    ``limit_sample`` for its caller to redraw the path from a tagged
    substream, and by ``brownian._batch`` to end the run (exit 3) when 64
    redraws of the path all stay degenerate."""
