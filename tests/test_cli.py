import io
import json
import subprocess
import sys
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from urlab import ConfigError, ExperimentConfig, FilterSpec, InnovationSpec, monte_carlo
from urlab.cli import (
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
            statistics=("excess_ape", "log_fisher"),
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


def test_broken_pool_exits_4_without_traceback(tmp_path, capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise BrokenProcessPool("a worker process terminated abruptly")

    monkeypatch.setattr(monte_carlo, "sample_statistics", broken)
    ini = tmp_path / "run.ini"
    ini.write_text(FAST_RUN)
    assert main(["fpe", str(ini), "--workers", "2", "--out", str(tmp_path / "o")]) == 4
    err = capsys.readouterr().err
    assert err == "error: a worker process terminated abruptly\n"


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
    targets = Targets(m_log2=8, bm_reps=4000)
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

    assert main(["fpe", str(good), "--out", str(tmp_path / "o1")]) == 0
    assert main(["fpe", str(tmp_path / "missing.ini")]) == 2
    assert main(["fpe", str(bad)]) == 2

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
    # certain aborts are refused at parse, so flag every row as unscoreable
    monkeypatch.setattr(monte_carlo, "_degenerate_mask", lambda u: np.ones(len(u), dtype=bool))
    ini = tmp_path / "degenerate.ini"
    ini.write_text(FAST_RUN)
    assert main(["fpe", str(ini), "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: degenerate-path rate")
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
