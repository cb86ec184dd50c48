import io
import json
import math
import multiprocessing
import os
import re
import subprocess
import sys
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np
import pytest

from urlab import ConfigError, ExperimentConfig, FilterSpec, InnovationSpec, monte_carlo
from urlab import brownian, cli
from urlab.cli import (
    SUBCOMMANDS,
    Targets,
    dispatch,
    load_run,
    main,
    serialize_config,
)

MINIMAL = """\
[filter]
family = finite
coeffs = 1.0

[innovations]
sigma_omega_sq = 1.0
sigma_sq = 1.0
pi = 1.0
"""

FAST_RUN = """\
[filter]
family = finite
coeffs = 1.0

[innovations]
pi = 1.0

[experiment]
n_grid = 200
reps = 400
base_seed = 5
statistics = fpe_stat

[targets]
fpe_floor = 0.5
"""


def test_minimal_config_is_full_correlation_walk():
    cfg = load_run(MINIMAL)[0]
    assert cfg.filter_spec.coeffs == (1.0,)
    assert cfg.innovations.pi == 1.0
    assert cfg.innovations.sigma_omega_sq == 1.0  # rho = 1
    assert cfg.varsigma == 1.0
    assert cfg.n_grid == (500,)


def test_all_errors_reported_at_once():
    bad = """\
[filter]
family = geometric
a = 1.0
r = 1.0

[innovations]
pi = 3.0
sigma_sq = not_a_number

[experiment]
reps = 1
volume = 11
"""
    with pytest.raises(ConfigError) as exc:
        load_run(bad)
    msgs = exc.value.problems
    assert any("not absolutely summable" in m for m in msgs)
    assert any("Cauchy-Schwarz" in m for m in msgs)
    assert any("sigma_sq" in m and "not_a_number" in m for m in msgs)
    assert any("unknown key 'volume'" in m for m in msgs)
    assert any("reps" in m for m in msgs)
    assert len(msgs) >= 5


def test_unknown_section_rejected():
    with pytest.raises(ConfigError, match=r"unknown section \[plotting\]"):
        load_run(MINIMAL + "\n[plotting]\nstyle = dark\n")


def test_syntax_error_wrapped():
    with pytest.raises(ConfigError, match="config syntax"):
        load_run("not an ini file at all [")


@pytest.mark.parametrize(
    "filter_keys",
    [
        "family = geometric\na = 1.0\nr = 0.999999\n",  # needs lag 18.4 million
        "family = geometric\na = 1.0\nr = 0.5\ntruncation_lag = 10000001\n",
    ],
    ids=["needed-lag", "truncation-lag"],
)
def test_oversized_lag_refused_at_parse(filter_keys):
    with pytest.raises(ConfigError) as exc:
        load_run(f"[filter]\n{filter_keys}\n[experiment]\nn_grid = 500\n")
    assert len(exc.value.problems) == 1
    assert "10000000" in exc.value.problems[0]


@pytest.mark.parametrize(
    "filter_keys,unread",
    [
        ("family = finite\ncoeffs = 1.0\nr = 0.9\na = 3.0\np = 2.5\n", "a, r, p"),
        ("family = finite\ncoeffs = 1.0\na = 3.0\n", "a"),
        ("family = geometric\na = 1.0\nr = 0.5\ncoeffs = 1.0\n", "coeffs"),
        ("family = geometric\na = 1.0\nr = 0.5\np = 2.5\n", "p"),
        ("family = polynomial\na = 1.0\np = 2.5\ncoeffs = 1.0, 0.5\n", "coeffs"),
        ("family = polynomial\na = 1.0\np = 2.5\nr = 0.5\n", "r"),
    ],
    ids=["finite-a-r-p", "finite-a", "geometric-coeffs", "geometric-p",
         "polynomial-coeffs", "polynomial-r"],
)
def test_filter_keys_the_family_does_not_read_are_refused(tmp_path, capsys, filter_keys, unread):
    text = FAST_RUN.replace("family = finite\ncoeffs = 1.0\n", filter_keys)
    message = f"{filter_keys.split()[2]} filter does not read {unread}"
    with pytest.raises(ConfigError) as exc:
        load_run(text)
    assert exc.value.problems == [message]

    ini = tmp_path / "run.ini"
    ini.write_text(text)
    assert main(["fpe", str(ini), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (tmp_path / "o").exists()


def test_log_fisher_is_refused_at_parse(tmp_path, capsys):
    ini = tmp_path / "run.ini"
    ini.write_text(FAST_RUN.replace("statistics = fpe_stat", "statistics = log_fisher"))
    assert main(["fpe", str(ini), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith("config error: unknown statistics ['log_fisher']")


def test_readme_example_is_the_benchmark_config():
    root = Path(__file__).resolve().parents[1]
    readme = (root / "README.md").read_text(encoding="utf-8")
    assert readme.count("```ini\n") == 1
    example = readme.split("```ini\n")[1].split("```")[0]
    bench = (root / "bench" / "configs" / "readme.ini").read_text(encoding="utf-8")
    assert load_run(example) == load_run(bench)


def test_round_trip_identity():
    configs = [
        load_run(MINIMAL)[0],
        ExperimentConfig(
            filter_spec=FilterSpec(family="geometric", a=-1.5, r=0.25, tail_tol=1e-10),
            innovations=InnovationSpec(2.0, 3.0, 0.125, "laplace"),
            beta=-0.75,
            varsigma=0.5,
            n_grid=(10, 100, 1000),
            reps=55,
            base_seed=99,
            statistics=("excess_ape", "x_n_sq_over_n"),
            out_dir="runs/a",
        ),
        ExperimentConfig(
            filter_spec=FilterSpec(family="polynomial", a=0.1, p=2.5, truncation_lag=7),
            innovations=InnovationSpec(1.0, 1.0, 1.0 / 3.0, "uniform"),
        ),
    ]
    for cfg in configs:
        assert load_run(serialize_config(cfg))[0] == cfg


def test_targets_round_trip():
    targets = Targets(se_mult=3.0, ks_max=0.05, m_log2=8, bm_reps=1000)
    cfg = load_run(MINIMAL)[0]
    _, parsed = load_run(serialize_config(cfg, targets))
    assert parsed == targets


def test_all_skips_checks_the_mode_cannot_support(tmp_path):
    base = dict(
        filter_spec=FilterSpec(family="finite", coeffs=(1.0,)),
        innovations=InnovationSpec(sigma_omega_sq=1.0, sigma_sq=1.0, pi=1.0),
        n_grid=(40, 80, 160),
        reps=1000,
        base_seed=13,
    )
    targets = Targets(m_log2=6, bm_reps=2000, limit_reps=1000)

    sink = io.StringIO()
    _, man = dispatch(
        "all", ExperimentConfig(**base), targets,
        out_dir=tmp_path / "unit_root", stream=sink,
    )
    text = sink.getvalue()
    assert "stationary: skipped (" in text
    assert set(man.artifacts) == {
        "fpe_summary.csv", "fpe_summary.json", "ape_curve.csv", "ape_curve.json",
        "mse_summary.csv", "mse_summary.json", "constants.json",
        "cross_moment.json", "limit_check.json",
    }

    sink = io.StringIO()
    _, man = dispatch(
        "all", ExperimentConfig(varsigma=0.5, **base), targets,
        out_dir=tmp_path / "stationary", stream=sink,
    )
    text = sink.getvalue()
    for name in ("fpe", "ape-curve", "mse", "cross-moment", "limit-check"):
        assert f"{name}: skipped (" in text
    assert set(man.artifacts) == {"constants.json", "stationary.json"}

    # outside "all" the mode mismatch stays a hard config error
    with pytest.raises(ConfigError, match="varsigma = 1"):
        dispatch(
            "fpe", ExperimentConfig(varsigma=0.5, **base), targets,
            out_dir=tmp_path / "reject", stream=io.StringIO(),
        )


@pytest.mark.parametrize(
    "varsigma,points,standalone",
    [
        (1.0, [(40, 80, 160)],
         ("fpe", "ape-curve", "mse", "constants", "cross-moment", "limit-check")),
        (0.5, [(160,)], ("stationary", "constants")),
    ],
    ids=["unit_root", "stationary"],
)
def test_all_simulates_each_point_once_with_standalone_bits(
    tmp_path, monkeypatch, varsigma, points, standalone
):
    config = ExperimentConfig(
        filter_spec=FilterSpec(family="geometric", a=1.0, r=0.5),
        innovations=InnovationSpec(sigma_omega_sq=1.0, sigma_sq=1.0, pi=0.5),
        varsigma=varsigma,
        n_grid=(40, 80, 160),
        reps=1000,
        base_seed=3,
    )
    targets = Targets(m_log2=6, bm_reps=2000, limit_reps=1000)
    simulated = []
    engine = monte_carlo.sample_statistics

    def counted(config, grid, *args, **kwargs):
        simulated.append(tuple(grid))
        return engine(config, grid, *args, **kwargs)

    monkeypatch.setattr(monte_carlo, "sample_statistics", counted)
    _, together = dispatch(
        "all", config, targets, out_dir=tmp_path / "all", stream=io.StringIO()
    )
    assert simulated == points

    alone = {}
    for name in standalone:
        _, man = dispatch(
            name, config, targets, out_dir=tmp_path / name, stream=io.StringIO()
        )
        alone.update(man.artifacts)
    assert together.artifacts == alone


def test_limit_check_needs_enough_finite_draws(tmp_path, capsys):
    # FAST_RUN's 400 reps suit every other check but not the KS distance
    cfg, _ = load_run(FAST_RUN)
    targets = Targets(m_log2=6, bm_reps=2000, limit_reps=1000)
    sink = io.StringIO()
    _, man = dispatch("all", cfg, targets, out_dir=tmp_path / "all", stream=sink)
    assert "limit-check: skipped (limit-check needs reps >= 1000" in sink.getvalue()
    assert "limit_check.json" not in man.artifacts
    assert (tmp_path / "all" / "manifest.json").exists()

    ini = tmp_path / "few.ini"
    ini.write_text(FAST_RUN)
    assert main(["limit-check", str(ini), "--out", str(tmp_path / "alone")]) == 2
    err = capsys.readouterr().err
    assert err == "config error: limit-check needs reps >= 1000 finite-n draws, got 400\n"


@pytest.mark.parametrize("reps", [2, 3])
def test_cross_moment_needs_four_reps(tmp_path, capsys, reps):
    # the correlation's standard error divides by sqrt(reps - 3)
    small = FAST_RUN.replace("reps = 400", f"reps = {reps}").replace("n_grid = 200", "n_grid = 50")
    cfg, _ = load_run(small)
    targets = Targets(m_log2=6, bm_reps=200, limit_reps=1000)
    sink = io.StringIO()
    _, man = dispatch("all", cfg, targets, out_dir=tmp_path / "all", stream=sink)
    assert "cross-moment: skipped (cross-moment needs reps >= 4" in sink.getvalue()
    assert "cross_moment.json" not in man.artifacts
    assert (tmp_path / "all" / "manifest.json").exists()

    ini = tmp_path / "few.ini"
    ini.write_text(small)
    assert main(["cross-moment", str(ini), "--out", str(tmp_path / "alone")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: cross-moment needs reps >= 4")
    assert err.count("\n") == 1 and "Traceback" not in err
    with pytest.raises(ConfigError, match="reps >= 4"):
        monte_carlo.cross_moment(cfg)


STATIONARY_RUN = FAST_RUN + "\n[model]\nvarsigma = 0.5\n"


@pytest.mark.parametrize(
    "check,text,message",
    [
        *[
            (check, STATIONARY_RUN, f"{check} compares against unit-root limits; set varsigma = 1")
            for check in ("fpe", "mse", "cross-moment", "limit-check")
        ],
        (
            "stationary",
            FAST_RUN,
            "stationary compares against stationary limits; set |varsigma| < 1",
        ),
        (
            "cross-moment",
            FAST_RUN.replace("reps = 400", "reps = 3").replace("n_grid = 200", "n_grid = 50"),
            "cross-moment needs reps >= 4 for the correlation's se, got 3",
        ),
        ("limit-check", FAST_RUN, "limit-check needs reps >= 1000 finite-n draws, got 400"),
        (
            "ape-curve",
            FAST_RUN.replace("n_grid = 200", "n_grid = 200, 400"),
            "ape-curve needs n_grid with >= 3 points to fit a slope, got 2",
        ),
    ],
    ids=[
        "fpe-stationary", "mse-stationary", "cross-moment-stationary", "limit-check-stationary",
        "stationary-unit-root", "cross-moment-reps-3", "limit-check-reps-400", "ape-curve-2-points",
    ],
)
def test_each_gate_has_one_home(tmp_path, capsys, check, text, message):
    # monte_carlo.require is the one gate: a check run alone exits 2 with
    # its message, "all" skips it with the same message, and so do the
    # library wrappers
    cfg, _ = load_run(text)
    with pytest.raises(ConfigError) as exc:
        monte_carlo.require(cfg, check)
    assert exc.value.problems == [message]

    ini = tmp_path / "run.ini"
    ini.write_text(text)
    assert main([check, str(ini), "--out", str(tmp_path / "alone")]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (tmp_path / "alone").exists()

    sink = io.StringIO()
    targets = Targets(m_log2=6, bm_reps=200, limit_reps=1000)
    dispatch("all", cfg, targets, out_dir=tmp_path / "all", stream=sink)
    assert f"\n{check}: skipped ({message})\n" in sink.getvalue()

    wrappers = {
        "cross-moment": monte_carlo.cross_moment,
        "stationary": monte_carlo.stationary_comparison,
    }
    if check in wrappers:
        with pytest.raises(ConfigError) as exc:
            wrappers[check](cfg)
        assert exc.value.problems == [message]


def test_every_finite_n_subcommand_has_needs():
    assert set(monte_carlo.NEEDS) == set(SUBCOMMANDS) - {"constants", "all"}


def _walk(varsigma=1.0):
    return ExperimentConfig(
        filter_spec=FilterSpec(family="finite", coeffs=(1.0,)),
        innovations=InnovationSpec(pi=0.5), varsigma=varsigma,
        n_grid=(40, 80, 160), reps=1000, base_seed=13,
    )


def _derived(monkeypatch):
    """Each shared simulation's (columns derived, {APE drawn?} over its tiles)."""
    seen, drawn = [], set()
    share, score = monte_carlo.check_columns, monte_carlo._path_columns

    def scored(*args):
        cols = score(*args)
        drawn.update("excess_ape" in base for base in cols.values())
        return cols

    def shared(*args, **kwargs):
        out = share(*args, **kwargs)
        seen.append(({name for cols in out.values() for name in cols}, set(drawn)))
        drawn.clear()
        return out

    monkeypatch.setattr(monte_carlo, "_path_columns", scored)
    monkeypatch.setattr(monte_carlo, "check_columns", shared)
    return seen


def test_all_derives_the_columns_its_checks_read(tmp_path, monkeypatch):
    seen = _derived(monkeypatch)
    targets = Targets(m_log2=6, bm_reps=200, limit_reps=1000)
    dispatch("all", _walk(), targets, out_dir=tmp_path, workers=1, stream=io.StringIO())
    union = {name for mode, *_, names, _ in monte_carlo.NEEDS.values() if mode == "unit-root"
             for name in names}
    assert union == {"fpe_stat", "excess_ape", "norm_est_sq", "x_n_sq_over_n"}
    assert seen == [(union, {True})]  # APE, since ape-curve runs


def test_an_n_max_check_derives_only_its_two_columns(tmp_path, monkeypatch):
    seen = _derived(monkeypatch)
    dispatch("cross-moment", _walk(), out_dir=tmp_path, workers=1, stream=io.StringIO())
    monte_carlo.stationary_comparison(_walk(varsigma=0.5), workers=1)
    assert seen == [
        ({"x_n_sq_over_n", "norm_est_sq"}, {False}), ({"x_n_sq", "n_est_sq"}, {False})
    ]


def test_each_handler_reads_only_what_its_needs_entry_names():
    # a column a handler reads but its NEEDS entry does not name is a KeyError
    targets = Targets(m_log2=6, bm_reps=200, limit_reps=1000)
    for name, handler in cli._HANDLERS.items():
        if name not in monte_carlo.NEEDS:
            handler(_walk(), targets, {}, 1)
            continue
        config = _walk(1.0 if monte_carlo.NEEDS[name][0] == "unit-root" else 0.5)
        handler(config, targets, monte_carlo.check_columns(config, (name,), 1), 1)


@pytest.mark.parametrize(
    "subcommand,edits,problems",
    [
        ("fpe", [("pi = 1.0", "pi = nan")], ["pi must be finite, got nan"]),
        (
            "fpe",
            [("[targets]", "[model]\nbeta = nan\n[targets]")],
            ["beta must be finite, got nan"],
        ),
        ("fpe", [("pi = 1.0", "pi = 1.0\nsigma_sq = inf")], ["sigma_sq must be finite, got inf"]),
        (
            "fpe",
            [("fpe_floor = 0.5", "se_mult = nan\nfpe_floor = nan")],
            ["se_mult must be finite, got nan", "fpe_floor must be finite, got nan"],
        ),
        (
            "stationary",
            [
                ("coeffs = 1.0", "coeffs = 1.0, nan"),
                ("[targets]", "[model]\nvarsigma = 0.5\n[targets]"),
            ],
            ["coeffs must be finite, got nan"],
        ),
    ],
    ids=["pi", "beta", "sigma_sq", "targets", "coeffs"],
)
def test_non_finite_values_are_config_errors(tmp_path, capsys, subcommand, edits, problems):
    text = FAST_RUN
    for old, new in edits:
        assert old in text
        text = text.replace(old, new)
    ini = tmp_path / "nonfinite.ini"
    ini.write_text(text)
    assert main([subcommand, str(ini), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == "".join(f"config error: {p}\n" for p in problems)
    assert not (tmp_path / "o").exists()


def test_integer_fields_of_every_spec_refuse_floats():
    with pytest.raises(ConfigError, match="truncation_lag must be an integer, got 2.0"):
        FilterSpec(family="geometric", a=1.0, r=0.5, truncation_lag=2.0)
    with pytest.raises(ConfigError) as exc:
        Targets(m_log2=8.5, bm_reps=1000.0)
    assert exc.value.problems == [
        "m_log2 must be an integer, got 8.5",
        "bm_reps must be an integer, got 1000.0",
    ]
    assert type(Targets(limit_reps=np.int64(2000)).limit_reps) is int


@pytest.mark.parametrize("build,problem", [
    (lambda: ExperimentConfig(FilterSpec(coeffs=(1.0,)), InnovationSpec(), varsigma="0.5"),
     "varsigma must be a number, got '0.5'"),
    (lambda: InnovationSpec(pi="0.5"), "pi must be a number, got '0.5'"),
    (lambda: FilterSpec(family="geometric", a="1", r=0.5), "a must be a number or None, got '1'"),
    (lambda: FilterSpec(coeffs=(1.0, "0.5")),
     "coeffs must be a tuple of numbers or None, got (1.0, '0.5')"),
    (lambda: Targets(ks_max="0.05"), "ks_max must be a number, got '0.05'"),
    (lambda: brownian.LimitParams(rho="1", sigma_omega=1.0, sigma_theta=0.0, theta=1.0),
     "rho must be a number, got '1'"),
], ids=["ExperimentConfig", "InnovationSpec", "FilterSpec", "FilterSpec-coeffs", "Targets",
        "LimitParams"])
def test_float_fields_of_every_spec_refuse_non_numbers(build, problem):
    with pytest.raises(ConfigError) as exc:
        build()
    assert exc.value.problems == [problem]


def test_broken_pool_exits_4_without_traceback(tmp_path, capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise BrokenProcessPool("a worker process terminated abruptly")

    monkeypatch.setattr(monte_carlo, "sample_statistics", broken)
    ini = tmp_path / "run.ini"
    ini.write_text(FAST_RUN)
    assert main(["fpe", str(ini), "--workers", "2", "--out", str(tmp_path / "o")]) == 4
    err = capsys.readouterr().err
    assert err == "error: a worker process terminated abruptly\n"


# FAST_RUN with enough reps for limit-check and small Brownian targets
SPLIT_RUN = FAST_RUN.replace("n_grid = 200", "n_grid = 50, 100, 200").replace(
    "reps = 400", "reps = 1000"
) + "m_log2 = 4\nbm_reps = 300\nlimit_reps = 1000\n"


def _split_every_stage(monkeypatch):
    # 300-rep finite blocks, and Brownian batches of 100 paths at grid 16
    # (19 values each, in constants and limit-check)
    monkeypatch.setattr(monte_carlo, "_CHUNK", 300)
    monkeypatch.setattr(brownian, "_BATCH_VALUES", 100 * 19)


def test_all_writes_the_same_artifacts_in_a_pool(tmp_path, monkeypatch):
    _split_every_stage(monkeypatch)
    ini = tmp_path / "run.ini"
    ini.write_text(SPLIT_RUN)
    manifests = []
    for k, workers in enumerate((["--workers", "1"], ["--workers", "2"], [])):
        out = tmp_path / f"w{k}"
        assert main(["all", str(ini), *workers, "--out", str(out)]) == 0
        manifests.append(json.loads((out / "manifest.json").read_text())["artifacts"])
    assert "limit_check.json" in manifests[0] and "constants.json" in manifests[0]
    assert manifests[1] == manifests[0] and manifests[2] == manifests[0]
    assert multiprocessing.active_children() == []


# sha256 of each artifact of `urlab all` on SPLIT_RUN at --workers 1 and
# the default block, batch and tile sizes.  A change meant to keep bits
# keeps these; one that alters bits on purpose updates them and says so
# in CHANGES.md, as test_pinned_bits.py asks.
SPLIT_RUN_ARTIFACTS = {
    "fpe_summary.csv": "40b4f3a7401a3ca76497064e67f7a5eb9ec8b08c6b17f76260abc6b13e55b895",
    "fpe_summary.json": "ade2af18e67a9208aa579d1add9f3feb16a58e1a1c8871b8a6563500339b8747",
    "ape_curve.csv": "7c936b5ffb1073a30c933613be03ee85a1c7614344df14e2a558662a8787ba8c",
    "ape_curve.json": "675f39ec95463089bd4ec30dbfa691ceb815a0b372c46ba9dc4ef669965cab5d",
    "mse_summary.csv": "ab1532615e2f232867800ef41495fbd2c1213d54c111454341abcfb3fb66ecf8",
    "mse_summary.json": "a9576334dfc892234ba6e581b2723d5d6f0c4c84c3405a31fc55783bc1c32bb9",
    "constants.json": "2949403ef4ed7cae8bf7ece4db068f6c80f00f1c2b30832da81921fe4c527fb6",
    "cross_moment.json": "b364e9f10a930f11297a235ac7ec2b0bae1b6f6de089c3acf5118fc493e3d5b4",
    "limit_check.json": "db99af989423cacd315aa097e5d75d8266719152f5d8c8e93a4d131b3a61f8e9",
}


def test_all_writes_the_pinned_artifacts(tmp_path):
    ini = tmp_path / "run.ini"
    ini.write_text(SPLIT_RUN)
    out = tmp_path / "o"
    assert main(["all", str(ini), "--workers", "1", "--out", str(out)]) == 0
    assert json.loads((out / "manifest.json").read_text())["artifacts"] == SPLIT_RUN_ARTIFACTS


def _usable_cores(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


def test_all_opens_one_pool_for_every_stage(tmp_path, monkeypatch, counting_pool):
    opened, mapped = counting_pool
    _usable_cores(monkeypatch, 2)
    _split_every_stage(monkeypatch)
    cfg, targets = load_run(SPLIT_RUN)
    _, manifest = dispatch(
        "all", cfg, targets, out_dir=tmp_path / "o", workers=2, stream=io.StringIO()
    )
    assert opened == [2]
    # finite blocks, constants batches, limit-check batches
    assert mapped == [4, 3, 10]
    assert "limit_check.json" in manifest.artifacts


@pytest.mark.parametrize(
    "workers,cores,opened",
    [(1000, 2, [2]), (2, 1, []), (3, 8, [3]), (1, 8, [])],
)
def test_run_pool_is_capped_at_the_usable_cores(
    tmp_path, monkeypatch, counting_pool, workers, cores, opened
):
    # a fork-started pool forks all its processes at its first map, so
    # more than the usable cores would only idle
    _usable_cores(monkeypatch, cores)
    ini = tmp_path / "run.ini"
    ini.write_text(FAST_RUN)
    out = tmp_path / "o"
    assert main(["fpe", str(ini), "--workers", str(workers), "--out", str(out)]) == 0
    assert counting_pool[0] == opened
    assert json.loads((out / "manifest.json").read_text())["workers"] == workers


def test_workers_1_runs_every_stage_serially(tmp_path, monkeypatch, counting_pool):
    # no stage may fall back to the engines' default of the usable cores
    _usable_cores(monkeypatch, 8)
    _split_every_stage(monkeypatch)
    ini = tmp_path / "run.ini"
    ini.write_text(SPLIT_RUN)
    out = tmp_path / "o"
    assert main(["all", str(ini), "--workers", "1", "--out", str(out)]) == 0
    assert counting_pool == ([], [])
    assert "limit_check.json" in json.loads((out / "manifest.json").read_text())["artifacts"]


@pytest.mark.parametrize("cores,opened", [(2, [2]), (1, [])])
def test_run_pool_defaults_to_the_usable_cores(
    tmp_path, monkeypatch, counting_pool, cores, opened
):
    _usable_cores(monkeypatch, cores)
    ini = tmp_path / "run.ini"
    ini.write_text(FAST_RUN)
    out = tmp_path / "o"
    assert main(["fpe", str(ini), "--out", str(out)]) == 0
    assert counting_pool[0] == opened
    assert json.loads((out / "manifest.json").read_text())["workers"] == cores


def _flat_draws(streams, family, z, draws=monte_carlo._draws):
    """The engine's draws with omega = 0 on every row: x is 0 throughout."""
    z = draws(streams, family, z)
    z[..., 0] = 0.0
    return z


@pytest.mark.parametrize(
    "subcommand,module,name,value,message",
    [
        ("constants", brownian, "_TIME_INTEGRAL_FLOOR", math.inf,
         r"path 0: time integral [0-9.e+-]+ below inf"),
        ("fpe", monte_carlo, "_draws", _flat_draws,
         r"path 0: x_1\^2 is 0, so no estimate exists to predict pair 2"),
    ],
    ids=["resample", "degenerate-rate"],
)
def test_worker_errors_exit_3(tmp_path, capsys, monkeypatch, subcommand, module, name,
                              value, message):
    # one case per engine: the Brownian sampler's floor, finite-n paths
    # drawn with omega = 0
    _split_every_stage(monkeypatch)
    monkeypatch.setattr(module, name, value)
    ini = tmp_path / "run.ini"
    ini.write_text(SPLIT_RUN)
    assert main([subcommand, str(ini), "--workers", "2", "--out", str(tmp_path / "o")]) == 3
    assert re.fullmatch(f"error: {message}\n", capsys.readouterr().err)
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize(
    "key",
    ["se_mult", "fpe_floor", "mse_floor", "k1_floor", "k2_floor", "slope_rel_band",
     "stationary_floor", "ks_max"],
)
def test_negative_targets_rejected_at_parse(tmp_path, capsys, key):
    ini = tmp_path / "targets.ini"
    ini.write_text(FAST_RUN.replace("fpe_floor = 0.5\n", "") + f"{key} = -1\n")
    assert main(["fpe", str(ini), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == f"config error: {key} must be >= 0, got -1.0\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("workers", ["0", "-2", "two"])
def test_workers_below_one_is_a_usage_error(tmp_path, capsys, workers):
    ini = tmp_path / "run.ini"
    ini.write_text(FAST_RUN)
    with pytest.raises(SystemExit) as exc:
        main(["fpe", str(ini), "--workers", workers, "--out", str(tmp_path / "o")])
    assert exc.value.code == 2
    assert "--workers: must be an integer >= 1" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "subcommand,setting",
    [
        ("limit-check", "limit_reps = 10"),
        ("all", "m_log2 = 0"),
        ("constants", "m_log2 = 1"),
        ("constants", "m_log2 = 2"),
        ("all", "bm_reps = 1"),
        ("all", "m_log2 = 21"),
    ],
)
def test_targets_out_of_range_rejected_at_parse(tmp_path, capsys, subcommand, setting):
    ini = tmp_path / "targets.ini"
    ini.write_text(FAST_RUN + setting + "\n")
    assert main([subcommand, str(ini), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {setting.split()[0]} must be >=")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_unwritable_out_dir_is_a_config_error_before_any_simulation(
    tmp_path, capsys, monkeypatch
):
    def never(*args, **kwargs):
        raise AssertionError("simulated before the output directory was made")

    monkeypatch.setattr(monte_carlo, "sample_statistics", never)
    ini = tmp_path / "run.ini"
    ini.write_text(FAST_RUN)
    blocker = tmp_path / "a-file"
    blocker.write_text("")
    for out in (blocker, blocker / "below"):
        assert main(["fpe", str(ini), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot create output directory {out}: ")
        assert err.count("\n") == 1 and "Traceback" not in err
    assert blocker.read_text() == ""


def test_ape_curve_judges_only_the_slope(tmp_path):
    cfg, targets = load_run(FAST_RUN.replace("n_grid = 200", "n_grid = 50, 100, 200"))
    sink = io.StringIO()
    dispatch("ape-curve", cfg, targets, out_dir=tmp_path, stream=sink)
    checks = [line.split()[0] for line in sink.getvalue().splitlines()[2:-1]]
    assert checks == ["excess_ape"] and "excess_ape slope" in sink.getvalue()
    payload = json.loads((tmp_path / "ape_curve.json").read_text())
    assert payload["target"] == 2.0
    assert [row["ratio"] for row in payload["grid"]] == [None, None, None]


def test_dispatch_writes_deterministic_artifacts(tmp_path):
    cfg, targets = load_run(FAST_RUN)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    sink = io.StringIO()
    fail_a, man_a = dispatch("fpe", cfg, targets, out_dir=out_a, stream=sink)
    fail_b, man_b = dispatch("fpe", cfg, targets, out_dir=out_b, stream=sink)
    assert fail_a == fail_b == 0
    assert man_a.artifacts == man_b.artifacts  # same checksums byte for byte
    assert set(man_a.artifacts) == {"fpe_summary.csv", "fpe_summary.json"}
    assert (out_a / "manifest.json").exists()
    table = sink.getvalue()
    assert "fpe_stat @ n=200" in table
    assert "pass" in table


def test_dispatch_table_reports_failure(tmp_path):
    cfg, _ = load_run(FAST_RUN)
    strict = Targets(fpe_floor=1e-9, se_mult=1e-9)
    sink = io.StringIO()
    failures, _ = dispatch("fpe", cfg, strict, out_dir=tmp_path, stream=sink)
    assert failures == 1
    assert "FAIL" in sink.getvalue()


def test_dispatch_rejects_unknown_subcommand(tmp_path):
    cfg, targets = load_run(FAST_RUN)
    with pytest.raises(ConfigError, match="subcommand"):
        dispatch("spectra", cfg, targets, out_dir=tmp_path)


def test_constants_subcommand_artifact(tmp_path):
    cfg, _ = load_run(FAST_RUN)
    # 16000 paths put K1's se near 0.32, so the band of 1.5 is over 4.5 se
    targets = Targets(m_log2=8, bm_reps=16000)
    sink = io.StringIO()
    failures, manifest = dispatch("constants", cfg, targets, out_dir=tmp_path, stream=sink)
    assert failures == 0
    payload = json.loads((tmp_path / "constants.json").read_text())
    assert abs(payload["k1"]["value"] - 13.3) < 1.5
    assert abs(payload["k2"]["value"] - 5.6) < 0.4
    assert payload["m"] == 256


def test_main_exit_codes(tmp_path):
    good = tmp_path / "good.ini"
    good.write_text(FAST_RUN)
    bad = tmp_path / "bad.ini"
    bad.write_text("[innovations]\npi = 9.0\n")
    latin1 = tmp_path / "latin1.ini"
    latin1.write_bytes("# caf\u00e9\n[innovations]\npi = 0.5\n".encode("latin-1"))

    assert main(["fpe", str(good), "--out", str(tmp_path / "o1")]) == 0
    assert main(["fpe", str(tmp_path / "missing.ini")]) == 2
    assert main(["fpe", str(bad)]) == 2
    assert main(["fpe", str(latin1)]) == 2

    # an impossible floor fails the comparison: exit 1 only under --strict
    hard = tmp_path / "hard.ini"
    hard.write_text(FAST_RUN.replace("fpe_floor = 0.5", "fpe_floor = 1e-12\nse_mult = 1e-12"))
    assert main(["fpe", str(hard), "--out", str(tmp_path / "o2")]) == 0
    assert main(["fpe", str(hard), "--out", str(tmp_path / "o3"), "--strict"]) == 1


DEGENERATE = (
    "[filter]\nfamily = finite\ncoeffs = 0.0, 1.0\n\n[innovations]\npi = 1.0\n\n"
    "[experiment]\nn_grid = {n}\nreps = 200\n"
)


def test_unscoreable_model_exits_3_without_traceback(tmp_path, capsys, monkeypatch):
    # certain aborts are refused at parse, so draw omega = 0 on every row
    monkeypatch.setattr(monte_carlo, "_draws", _flat_draws)
    ini = tmp_path / "degenerate.ini"
    ini.write_text(FAST_RUN)
    assert main(["fpe", str(ini), "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: path 0: x_1^2 is 0, so no estimate exists to predict pair 2")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_certain_abort_is_a_config_error(tmp_path, capsys):
    # first tap 0 with n=3: no regressor can appear before the final pair
    ini = tmp_path / "degenerate.ini"
    ini.write_text(DEGENERATE.format(n=3))
    assert main(["fpe", str(ini), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: n = 3 can score no prediction")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not (tmp_path / "o").exists()
    # one more step gives x_2 a nonzero innovation
    ini.write_text(DEGENERATE.format(n=4))
    assert main(["fpe", str(ini), "--out", str(tmp_path / "o")]) == 0


@pytest.mark.parametrize(
    "setting,extra",
    [("base_seed = -3", []), ("base_seed = 5", ["--seed", "-1"])],
    ids=["ini", "flag"],
)
def test_negative_seed_is_a_config_error(tmp_path, capsys, setting, extra):
    ini = tmp_path / "seed.ini"
    ini.write_text(FAST_RUN.replace("base_seed = 5", setting))
    assert main(["fpe", str(ini), "--out", str(tmp_path / "o")] + extra) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: base_seed must be >= 0")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_ape_curve_needs_three_grid_points(tmp_path, capsys):
    short = tmp_path / "short.ini"
    short.write_text(FAST_RUN.replace("n_grid = 200", "n_grid = 200, 400"))
    assert main(["ape-curve", str(short), "--out", str(tmp_path / "o")]) == 2
    assert "ape-curve needs n_grid" in capsys.readouterr().err


def test_a_rerun_writes_the_same_manifest_bytes(tmp_path):
    ini = tmp_path / "run.ini"
    ini.write_text(FAST_RUN)
    out = tmp_path / "o"
    manifests = []
    for seed in ("0", "0", "5"):
        assert main(["fpe", str(ini), "--workers", "1", "--seed", seed, "--out", str(out)]) == 0
        manifests.append((out / "manifest.json").read_bytes())
    assert manifests[1] == manifests[0]
    first, reseeded = (json.loads(m) for m in (manifests[0], manifests[2]))
    assert set(first["versions"]) == {"urlab", "python", "numpy", "scipy", "blas"}
    assert first["versions"]["numpy"] == np.__version__
    assert first["config_sha256"] != reseeded["config_sha256"]


def test_seed_override_changes_outputs(tmp_path):
    good = tmp_path / "good.ini"
    good.write_text(FAST_RUN)
    assert main(["fpe", str(good), "--out", str(tmp_path / "s1"), "--seed", "5"]) == 0
    assert main(["fpe", str(good), "--out", str(tmp_path / "s2"), "--seed", "6"]) == 0
    man1 = json.loads((tmp_path / "s1" / "manifest.json").read_text())
    man2 = json.loads((tmp_path / "s2" / "manifest.json").read_text())
    assert man1["base_seed"] == 5 and man2["base_seed"] == 6
    assert man1["artifacts"] != man2["artifacts"]


def test_console_entry_point(tmp_path):
    good = tmp_path / "good.ini"
    good.write_text(FAST_RUN)
    proc = subprocess.run(
        [sys.executable, "-m", "urlab.cli", "fpe", str(good), "--out", str(tmp_path / "o")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "fpe: pass" in proc.stdout
