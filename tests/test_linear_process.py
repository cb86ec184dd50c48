import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import signal, special

import urlab
from urlab import (
    ConfigError,
    FilterSpec,
    InnovationSpec,
    LimitParams,
    ReconstructionError,
    decompose,
    generate_path,
    materialize_filter,
    stationary_burn_in,
)
from urlab import monte_carlo
from urlab.linear_process import _AR_LOOP_MAX_WIDTH, ar1_rows
from urlab.streams import ROLE_PATH, substream

RANDOM_WALK = FilterSpec(family="finite", coeffs=(1.0,))
FULL_CORR = InnovationSpec(sigma_omega_sq=1.0, sigma_sq=1.0, pi=1.0)


# ---------------------------------------------------------------- filters

def test_finite_filter_closed_forms():
    filt = materialize_filter(FilterSpec(family="finite", coeffs=(1.0, 2.0, -0.5)))
    assert filt.theta == pytest.approx(2.5, rel=1e-15)
    assert len(filt.coeffs) - 1 == 2
    assert filt.truncated_partial_sums()[1] == pytest.approx([1.5, -0.5, 0.0], abs=1e-15)
    assert filt.tail_bound == 0.0
    params = LimitParams.from_model(filt, InnovationSpec(sigma_omega_sq=4.0, sigma_sq=4.0))
    assert params.iota_sq == pytest.approx(6.25)
    assert params.lam == pytest.approx(5.0)


def test_geometric_filter_closed_forms():
    filt = materialize_filter(FilterSpec(family="geometric", a=1.0, r=0.5))
    assert filt.theta == pytest.approx(2.0, rel=1e-15)
    assert filt.tail_bound <= filt.spec.tail_tol * abs(filt.theta)
    # the chosen lag is minimal: one step shorter would violate the bound
    lag = len(filt.coeffs) - 1
    assert 0.5**lag / 0.5 > filt.spec.tail_tol * 2.0  # tail(lag-1) too big


def test_polynomial_filter_closed_forms():
    filt = materialize_filter(FilterSpec(family="polynomial", a=2.0, p=3.0))
    assert filt.theta == pytest.approx(2.0 * special.zeta(3.0, 1), rel=1e-14)
    assert filt.coeffs[0] == 2.0
    assert filt.coeffs[3] == pytest.approx(2.0 / 64.0)
    assert filt.tail_bound <= filt.spec.tail_tol * abs(filt.theta)


def test_truncation_lag_lower_bound_honored():
    filt = materialize_filter(FilterSpec(family="geometric", a=1.0, r=0.1, truncation_lag=50))
    assert len(filt.coeffs) - 1 >= 50


def _tail(spec: FilterSpec, lag: int) -> float:
    """sum_{j > lag} |c_j| in closed form."""
    if spec.family == "geometric":
        return abs(spec.a) * abs(spec.r) ** (lag + 1) / (1.0 - abs(spec.r))
    return abs(spec.a) * float(special.zeta(spec.p, lag + 2))


@pytest.mark.parametrize(
    "spec, lag",
    [
        (FilterSpec(family="geometric", a=1.0, r=0.5), 26),
        (FilterSpec(family="geometric", a=-1.5, r=0.25, tail_tol=1e-10), 16),
        (FilterSpec(family="geometric", a=1.0, r=0.1, truncation_lag=50), 50),
        (FilterSpec(family="geometric", a=2.0, r=-0.6), 38),
        (FilterSpec(family="geometric", a=-2.0, r=-0.85), 128),
        (FilterSpec(family="polynomial", a=0.1, p=2.5, truncation_lag=7), 135169),
        (FilterSpec(family="polynomial", a=1.0, p=2.5), 135169),
        (FilterSpec(family="polynomial", a=1.0, p=3.0), 6448),
        (FilterSpec(family="polynomial", a=2.0, p=3.0), 6448),
        # tail(3) meets the tolerance exactly
        (FilterSpec(family="geometric", a=0.3, r=0.01, tail_tol=1e-8), 3),
    ],
)
def test_lag_is_pinned_and_minimal(spec, lag):
    filt = materialize_filter(spec)
    tol = spec.tail_tol * abs(filt.theta)
    assert len(filt.coeffs) - 1 == lag
    assert filt.tail_bound == _tail(spec, lag) <= tol
    assert lag == spec.truncation_lag or _tail(spec, lag - 1) > tol


def test_materialized_filter_is_shared_and_read_only():
    filt = materialize_filter(FilterSpec(family="geometric", a=1.0, r=0.5))
    assert materialize_filter(FilterSpec(family="geometric", a=1.0, r=0.5)) is filt
    with pytest.raises(ValueError, match="read-only"):
        filt.coeffs[0] = 0.0


def test_filter_validation_messages():
    with pytest.raises(ConfigError, match="not absolutely summable"):
        FilterSpec(family="geometric", a=1.0, r=1.0)
    with pytest.raises(ConfigError, match="p > 2"):
        FilterSpec(family="polynomial", a=1.0, p=2.0)
    with pytest.raises(ConfigError, match="non-empty coeffs"):
        FilterSpec(family="finite")
    with pytest.raises(ConfigError, match="sums to zero"):
        materialize_filter(FilterSpec(family="finite", coeffs=(1.0, -1.0)))


def test_truncated_partial_sums_match_taps():
    filt = materialize_filter(FilterSpec(family="geometric", a=2.0, r=-0.6))
    theta_t, tails_t = filt.truncated_partial_sums()
    assert theta_t == pytest.approx(float(np.sum(filt.coeffs)), rel=1e-14)
    assert abs(theta_t - filt.theta) <= filt.tail_bound * 1.000001
    assert tails_t[-1] == 0.0


# ---------------------------------------------------------------- paths

def test_random_walk_identity_bitwise():
    # beta=1 with epsilon == omega makes each response equal the next level:
    # the pair (x_j, y) stores y = x_j + eps, and eps is the same draw that
    # the walk absorbs as its next increment
    filt = materialize_filter(RANDOM_WALK)
    traj = generate_path(filt, FULL_CORR, 1.0, 300, substream(0, ROLE_PATH, 0))
    assert traj.x[0] == 0.0
    assert np.array_equal(traj.x[1:], np.cumsum(traj.eta))
    assert np.array_equal(traj.y[:-1], traj.x[2:])
    assert traj.epsilon[:-1].tolist() == traj.omega[1:].tolist()
    assert traj.y[-1] == traj.x[-1] + traj.epsilon[-1]


def test_shapes_and_alignment():
    filt = materialize_filter(FilterSpec(family="finite", coeffs=(0.5, 0.25)))
    innov = InnovationSpec(sigma_omega_sq=1.0, sigma_sq=2.0, pi=0.3)
    n = 47
    traj = generate_path(filt, innov, -0.7, n, substream(5, ROLE_PATH, 1))
    assert traj.n == n
    assert len(traj.x) == n + 1
    assert len(traj.y) == len(traj.omega) == len(traj.epsilon) == len(traj.eta) == n
    # y_{t} = beta x_{t-1} + eps_t, t = 2..n+1
    assert traj.y == pytest.approx(-0.7 * traj.x[1:] + traj.epsilon, rel=1e-15)


def test_first_increment_uses_only_first_tap():
    # no pre-sample omegas: eta_1 = c_0 omega_1 exactly
    filt = materialize_filter(FilterSpec(family="finite", coeffs=(0.7, 9.0, -3.0)))
    innov = InnovationSpec(sigma_omega_sq=1.0, sigma_sq=1.0, pi=0.0)
    traj = generate_path(filt, innov, 1.0, 20, substream(8, ROLE_PATH, 0))
    assert traj.eta[0] == pytest.approx(0.7 * traj.omega[0], rel=1e-15)
    assert traj.eta[1] == pytest.approx(0.7 * traj.omega[1] + 9.0 * traj.omega[0], rel=1e-15)


def test_path_too_short_rejected():
    filt = materialize_filter(RANDOM_WALK)
    with pytest.raises(ConfigError, match="n >= 2"):
        generate_path(filt, FULL_CORR, 1.0, 1, substream(0, ROLE_PATH, 0))


def test_stationary_burn_in_schedule():
    assert stationary_burn_in(1.0) == 0
    assert stationary_burn_in(0.0) == 10
    assert stationary_burn_in(0.5) == 20
    assert stationary_burn_in(-0.5) == 20
    assert stationary_burn_in(0.9) == 100


def test_stationary_mode_variance():
    # AR(1) with varsigma=0.5 on white eta: var(x) = 1/(1 - 0.25)
    filt = materialize_filter(RANDOM_WALK)
    innov = InnovationSpec(sigma_omega_sq=1.0, sigma_sq=1.0, pi=0.0)
    acc = []
    for rep in range(200):
        traj = generate_path(filt, innov, 1.0, 500, substream(4, ROLE_PATH, rep), varsigma=0.5)
        acc.append(float(np.mean(traj.x[1:] ** 2)))
    assert np.mean(acc) == pytest.approx(1.0 / 0.75, abs=0.03)


def test_varsigma_validation():
    filt = materialize_filter(RANDOM_WALK)
    with pytest.raises(ConfigError, match="varsigma"):
        generate_path(filt, FULL_CORR, 1.0, 10, substream(0, ROLE_PATH, 0), varsigma=1.5)


# ------------------------------------------------------------ decompose

@pytest.mark.parametrize(
    "spec",
    [
        RANDOM_WALK,
        FilterSpec(family="finite", coeffs=(1.0, 2.0, -0.5, 0.25)),
        FilterSpec(family="geometric", a=1.0, r=0.5),
        FilterSpec(family="geometric", a=-2.0, r=-0.85),
        FilterSpec(family="polynomial", a=1.0, p=2.5),
    ],
)
def test_walk_plus_remainder_reconstructs_path(spec):
    filt = materialize_filter(spec)
    innov = InnovationSpec(sigma_omega_sq=2.0, sigma_sq=1.0, pi=0.5)
    traj = generate_path(filt, innov, 1.0, 400, substream(7, ROLE_PATH, 3))
    nmat, smat = decompose(traj, filt)
    scale = max(1.0, float(np.max(np.abs(traj.x))))
    assert np.max(np.abs(nmat - smat - traj.x[1:])) <= 1e-10 * scale


def test_decompose_rejects_mismatched_filter():
    filt = materialize_filter(RANDOM_WALK)
    other = materialize_filter(FilterSpec(family="finite", coeffs=(1.0, 5.0)))
    traj = generate_path(filt, FULL_CORR, 1.0, 100, substream(7, ROLE_PATH, 0))
    with pytest.raises(ReconstructionError):
        decompose(traj, other)


@given(
    coeffs=st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=6).filter(
        lambda c: abs(sum(c)) > 1e-3
    ),
    seed=st.integers(0, 2**20),
)
@settings(max_examples=40, deadline=None)
def test_reconstruction_property(coeffs, seed):
    filt = materialize_filter(FilterSpec(family="finite", coeffs=tuple(coeffs)))
    traj = generate_path(filt, FULL_CORR, 1.0, 60, substream(seed, ROLE_PATH, 0))
    nmat, smat = decompose(traj, filt)
    scale = max(1.0, float(np.max(np.abs(traj.x))))
    assert np.max(np.abs(nmat - smat - traj.x[1:])) <= 1e-10 * scale


# ------------------------------------------------------------ row filters

def _rows_with_zeros(rows, width, seed):
    """Gaussian rows with exact +0.0 and -0.0 entries mixed in."""
    x = np.random.default_rng(seed).standard_normal((rows, width))
    x[0, ::3] = 0.0
    x[1, 1::4] = -0.0
    if width > 2:
        x[-1, :2] = -0.0
    return x


def _filtered(coeffs, omega, integrate):
    """``monte_carlo._filtered_rows`` of ``omega`` through the taps
    ``coeffs``, in buffers that start out NaN, as a fresh array."""
    rows, width = omega.shape
    filt = materialize_filter(FilterSpec(family="finite", coeffs=tuple(coeffs)))
    size = monte_carlo._padded_values(rows, width)
    blocks, out = np.full(2 * size, np.nan), np.full(size, np.nan)
    return monte_carlo._filtered_rows(filt, omega, integrate, blocks, out).copy()


@pytest.mark.parametrize("taps", [1, 2, 3, 27, 40])
@pytest.mark.parametrize("width", [1, 2, 26, 27, 28, 31, 32, 33, 39, 41, 300, 333])
def test_fir_rows_match_lfilter_bit_for_bit(taps, width):
    """The engine's block-Toeplitz FIR filter, and its running sum, against
    ``lfilter``.  The per-row ``fir_rows`` it replaced matched lfilter bit
    for bit; the block products sum in another order, so this compares to
    rounding: a few units in the last place of the largest sum a row could
    reach.  40 taps span three Toeplitz blocks, and widths around 32 put a
    row's end on either side of a block's."""
    coeffs = np.random.default_rng(taps).standard_normal(taps)
    coeffs[-1] = -0.5 if taps > 1 else -1.5
    # a strided view, as the engine passes omega without its last column
    x = _rows_with_zeros(5, width + 1, seed=width)[:, :-1]
    eta = signal.lfilter(coeffs, [1.0], x, axis=1)
    tol = 8 * np.finfo(float).eps * np.abs(coeffs).sum() * np.abs(x).sum(axis=1, keepdims=True)
    for integrate, want in ((False, eta), (True, np.cumsum(eta, axis=1))):
        got = _filtered(coeffs, x, integrate)
        assert got.shape == want.shape
        assert np.all(np.abs(got - want) <= tol), integrate


@pytest.mark.parametrize("integrate", [False, True], ids=["eta", "x"])
@pytest.mark.parametrize("taps", [27, 40])
def test_filtered_row_bits_do_not_depend_on_width_rows_or_offset(taps, integrate):
    # every BLAS product multiplies 16 blocks of 32 steps, so a row's bits
    # are its own wherever it sits in the stacked blocks
    coeffs = np.random.default_rng(taps).standard_normal(taps)
    rng = np.random.default_rng(taps + 1)
    row = rng.standard_normal(333)  # 11 blocks
    alone = _filtered(coeffs, row[None, :], integrate)[0].tobytes()
    for width in (1, 20, 31, 32, 33, 64, 100, 332):  # prefixes, 1-block rows first
        assert _filtered(coeffs, row[None, :width], integrate)[0].tobytes() == alone[: 8 * width]
    # row k of a stack starts at block 11 k: offsets 0, 11, 6 (22 - 16), 1, ...
    for rows in (2, 3, 7):
        for at in range(rows):
            stack = rng.standard_normal((rows, 333))
            stack[at] = row
            assert _filtered(coeffs, stack, integrate)[at].tobytes() == alone, (rows, at)
    # a 1-block row at each offset of 17 rows, the last one in a second product
    for at in range(17):
        stack = rng.standard_normal((17, 20))
        stack[at] = row[:20]
        assert _filtered(coeffs, stack, integrate)[at].tobytes() == alone[: 8 * 20], at


@pytest.mark.parametrize("varsigma", [0.5, -0.9, 0.0])
@pytest.mark.parametrize("width", [1, 2, 50, 333, _AR_LOOP_MAX_WIDTH, _AR_LOOP_MAX_WIDTH + 1])
def test_ar1_rows_match_lfilter(varsigma, width):
    x = _rows_with_zeros(5, width, seed=7)
    want = signal.lfilter([1.0], [1.0, -varsigma], x, axis=1)
    got = ar1_rows(x.copy(), varsigma)
    np.testing.assert_array_equal(got, want)
    if varsigma > 0.0:
        assert got.tobytes() == want.tobytes()
    else:
        # equal by value: scipy's state update can sign an exact zero otherwise
        nonzero = want != 0.0
        assert got[nonzero].tobytes() == want[nonzero].tobytes()


def test_ar1_rows_works_in_place():
    for width in (3, _AR_LOOP_MAX_WIDTH + 1):  # the numpy loop, then scipy
        x = np.arange(3.0 * (width + 1)).reshape(3, width + 1)
        view = x[:, 1:]
        assert ar1_rows(view, 0.5) is view
        np.testing.assert_array_equal(x[0, :4], [0.0, 1.0, 2.5, 4.25])


# ---------------------------------------------------------- import path

_IMPORT_PROBE = """
import sys
import urlab, urlab.cli
from urlab import cli, materialize_filter
import numpy as np
from urlab.linear_process import FilterSpec, ar1_rows

config, _ = cli.load_run(open(sys.argv[1], encoding="utf-8").read())
materialize_filter(config.filter_spec)
materialize_filter(FilterSpec(family="finite", coeffs=(1.0, 0.5)))
ar1_rows(np.ones((4, 70)), 0.5)  # short stationary rows
assert "scipy.signal" not in sys.modules, "scipy.signal"
assert "scipy.special" not in sys.modules, "scipy.special"
materialize_filter(FilterSpec(family="polynomial", a=1.0, p=3.0))
assert "scipy.special" in sys.modules
assert "scipy.signal" not in sys.modules
"""


def test_start_up_imports_no_scipy_until_a_polynomial_filter():
    src = str(Path(urlab.__file__).resolve().parents[1])
    config = Path(__file__).resolve().parents[1] / "bench" / "configs" / "readme.ini"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, str(config)], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr

