"""The benchmark's workloads.

Each workload builds its inputs from a seed, runs one unit of work
through urlab's public entry points, and judges the unit's output:
``digest`` fingerprints the exact bits (two units on the same seed must
agree), ``problems`` applies statistical sanity checks whose margins are
wide at the workload's reps, so a legitimate change of bits still passes.

All urlab calls go through module attributes (``monte_carlo.run``, not
``urlab.run``) so the layer tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from urlab import brownian, cli, monte_carlo
from urlab.innovations import InnovationSpec
from urlab.linear_process import FilterSpec, materialize_filter, stationary_burn_in

BENCH_DIR = Path(__file__).resolve().parent
README_INI = BENCH_DIR / "configs" / "readme.ini"

# Sanity checks allow this many Monte Carlo standard errors.
SE_MULT = 5.0
# Per-path standard deviations of the heavy-tailed means, measured once at
# m=4096 (K1, K2 over 20000 paths, limit fpe over 10000).  A sample with
# no large draw understates its own standard error, and the mean then sits
# several of those below the target (z = -5.7 once in 300 units for the
# finite fpe at 200 reps), so the band never narrows below these.
SD_REF = {"K1": 41.0, "K2": 6.1, "fpe": 4.4}
# Finite-n bias of the stationary joint-minus-product contrast at n=50 is
# about -1.1 se at 20000 reps, with a spread of 1.1 se over 100 seeds, so
# the criterion-7 style 4-se band would fail about one unit in 300.
STATIONARY_SE_MULT = 6.0
# Two-sample KS distance between 1000 finite-n and 1000 limit-law draws:
# the 0.03 pass line of `limit-check` is within noise at these reps (KS
# read 0.031 on one seed), 0.12 is beyond the 1e-5 null quantile.
KS_MAX = 0.12


def _sha(payload) -> str:
    return hashlib.sha256(json.dumps(payload).encode("utf-8")).hexdigest()


def _within(label, value, target, se, floor=0.0, reps=None):
    """|value - target| within floor + SE_MULT standard errors; for the
    statistics in SD_REF the standard error is at least SD_REF / sqrt(reps)."""
    if label in SD_REF:
        se = max(se, SD_REF[label] / math.sqrt(reps))
    band = floor + SE_MULT * se
    if math.isfinite(value) and abs(value - target) <= band:
        return []
    return [f"{label} = {value!r} is outside {target} +- {band:.4g}"]


def _readme():
    return cli.load_run(README_INI.read_text(encoding="utf-8"))


def _readme_theta(spec: FilterSpec) -> float:
    # geometric family: sum_j a r^j
    return spec.a / (1.0 - spec.r)


class ApeGrid:
    """Criterion 3's n-grid on the README filter, with the APE columns."""

    name = "ape_grid"
    fresh_process = False

    def __init__(self, tiny: bool, workdir: Path):
        base, _ = _readme()
        self.base = replace(
            base,
            n_grid=(50, 100, 200, 400) if tiny else (500, 2000, 8000, 32000),
            reps=200,
            statistics=("excess_ape", "x_n_sq_over_n", "fpe_stat"),
        )
        self.steps = self.base.reps * sum(n + 1 for n in self.base.n_grid)

    def run(self, seed):
        return monte_carlo.run(replace(self.base, base_seed=seed), workers=1)

    run_in_process = run

    def digest(self, out):
        return _sha([[s.statistic, s.n, s.mean, s.mc_se] for s in out])

    def problems(self, out):
        innov = self.base.innovations
        lam_sq = innov.sigma_omega_sq * _readme_theta(self.base.filter_spec) ** 2
        n_max = self.base.n_grid[-1]
        found = []
        for s in out:
            if not math.isfinite(s.mean):
                found.append(f"{s.statistic} @ n={s.n} is not finite")
            elif s.statistic == "x_n_sq_over_n":
                found += _within(f"x_n^2/n @ n={s.n}", s.mean, lam_sq, s.mc_se)
            elif s.statistic == "fpe_stat" and s.n == n_max:
                found += _within("fpe", s.mean, 2.0 * innov.sigma_sq, s.mc_se, reps=s.reps)
        if len(out) != 3 * len(self.base.n_grid):
            found.append(f"expected {3 * len(self.base.n_grid)} summaries, got {len(out)}")
        return found


class ShortStationary:
    """Short AR(1)-contrast paths: per-replication cost dominates."""

    name = "short_stationary"
    fresh_process = False

    def __init__(self, tiny: bool, workdir: Path):
        base, _ = _readme()
        self.base = replace(
            base,
            filter_spec=FilterSpec(family="finite", coeffs=(1.0,)),
            innovations=InnovationSpec(sigma_omega_sq=1.0, sigma_sq=1.0, pi=1.0),
            varsigma=0.5,
            n_grid=(50,),
            reps=1000 if tiny else 20000,
        )
        n = self.base.n_grid[0]
        self.steps = self.base.reps * (stationary_burn_in(self.base.varsigma) + n + 1)

    def run(self, seed):
        return monte_carlo.stationary_comparison(replace(self.base, base_seed=seed), workers=1)

    run_in_process = run

    def digest(self, out):
        return _sha(out)

    def problems(self, out):
        if out["reps"] != self.base.reps:
            return [f"expected {self.base.reps} reps, got {out['reps']}"]
        bad = [k for k, v in out.items() if not math.isfinite(v)]
        if bad:
            return [f"not finite: {bad}"]
        band = STATIONARY_SE_MULT * out["diff_se"]
        if abs(out["diff"]) > band:
            return [f"joint - product = {out['diff']!r} exceeds {band:.4g}"]
        return []


class BmLimit:
    """Criterion 4's Brownian constants plus a limit-law batch."""

    name = "bm_limit"
    fresh_process = False

    def __init__(self, tiny: bool, workdir: Path):
        base, targets = _readme()
        self.innov = base.innovations
        self.targets = targets
        self.m = 64 if tiny else 4096
        self.const_reps = 200 if tiny else 2000
        self.limit_reps = 100 if tiny else 1000
        filt = materialize_filter(base.filter_spec)
        self.params = brownian.LimitParams.from_model(filt, base.innovations)
        # one scalar Gaussian increment per step: 2m per path on both sides
        self.steps = (self.const_reps + self.limit_reps) * 2 * self.m

    def run(self, seed):
        report = brownian.estimate_constants(m=self.m, reps=self.const_reps, base_seed=seed)
        draws = brownian.limit_sample_batch(self.params, self.m, self.limit_reps, seed)
        return report, draws

    run_in_process = run

    def digest(self, out):
        report, draws = out
        arrays = [hashlib.sha256(draws[k].tobytes()).hexdigest()
                  for k in ("fpe_limit_draw", "mse_limit_draw")]
        return _sha([report.as_dict(), arrays, draws["resampled"]])

    def problems(self, out):
        report, draws = out
        t = self.targets
        found = _within("K1", report.k1.value, brownian.CANONICAL_K1.value, report.k1.se,
                        t.k1_floor, report.reps)
        found += _within("K2", report.k2.value, brownian.CANONICAL_K2.value, report.k2.se,
                         t.k2_floor, report.reps)
        fpe = draws["fpe_limit_draw"]
        if len(fpe) != self.limit_reps or not np.all(np.isfinite(fpe)):
            return found + ["limit draws missing or not finite"]
        se = float(np.std(fpe, ddof=1)) / math.sqrt(len(fpe))
        return found + _within("fpe", float(np.mean(fpe)), 2.0 * self.innov.sigma_sq, se,
                               reps=len(fpe))


# Artifacts `urlab all` writes for a unit-root config (stationary is skipped).
CLI_ARTIFACTS = {
    "fpe_summary.csv", "fpe_summary.json", "ape_curve.csv", "ape_curve.json",
    "mse_summary.csv", "mse_summary.json", "constants.json", "cross_moment.json",
    "limit_check.json",
}


class CliAll:
    """`urlab all` on the README config, one fresh process per unit."""

    name = "cli_all"
    fresh_process = True

    def __init__(self, tiny: bool, workdir: Path):
        config, targets = _readme()
        # reps and limit_reps stay at 1000, the floor of the KS check
        config = replace(config, reps=1000, **({"n_grid": (50, 100, 200)} if tiny else {}))
        targets = replace(targets, bm_reps=200 if tiny else 2000, limit_reps=1000,
                          **({"m_log2": 6} if tiny else {}))
        self.config, self.targets = config, targets
        self.dir = workdir / self.name
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.ini = self.dir / "config.ini"
        self.ini.write_text(cli.serialize_config(config, targets), encoding="utf-8")
        self.src = BENCH_DIR.parent / "src"
        self.workers = min(2, len(os.sched_getaffinity(0)))
        self._units = 0
        n = config.n_grid
        # fpe, ape-curve and mse walk the grid, cross-moment and
        # limit-check simulate n_max again: the steps the checks consume
        finite = config.reps * (3 * sum(k + 1 for k in n) + 2 * (n[-1] + 1))
        brown = (targets.bm_reps + targets.limit_reps) * 2 * (1 << targets.m_log2)
        self.steps = finite + brown

    def _out_dir(self):
        self._units += 1
        return self.dir / f"unit-{self._units}"

    def run(self, seed):
        out = self._out_dir()
        cmd = [sys.executable, "-m", "urlab.cli", "all", str(self.ini), "--seed", str(seed),
               "--workers", str(self.workers), "--out", str(out)]
        env = dict(os.environ, PYTHONPATH=str(self.src))
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=170)
        if proc.returncode != 0:
            raise RuntimeError(f"urlab all exited {proc.returncode}: {proc.stderr[-2000:]}")
        return self._read(out)

    def run_in_process(self, seed):
        out = self._out_dir()
        argv = ["all", str(self.ini), "--seed", str(seed), "--workers", "1", "--out", str(out)]
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"urlab all returned {code}")
        return self._read(out)

    @staticmethod
    def _read(out: Path):
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        on_disk = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                   for name in manifest["artifacts"] if (out / name).is_file()}
        docs = {name: json.loads((out / name).read_text(encoding="utf-8"))
                for name in ("cross_moment.json", "constants.json", "limit_check.json")
                if (out / name).is_file()}
        return manifest["artifacts"], on_disk, docs

    def digest(self, out):
        return _sha(sorted(out[0].items()))

    def problems(self, out):
        artifacts, on_disk, docs = out
        if set(artifacts) != CLI_ARTIFACTS:
            return [f"artifacts {sorted(artifacts)} differ from {sorted(CLI_ARTIFACTS)}"]
        if on_disk != artifacts:
            return ["manifest checksums do not match the files written"]
        t, innov = self.targets, self.config.innovations
        cross = docs["cross_moment.json"]
        lam_sq = innov.sigma_omega_sq * _readme_theta(self.config.filter_spec) ** 2
        found = _within(f"x_n^2/n @ n={cross['n']}", cross["mean_x_n_sq_over_n"], lam_sq,
                        cross["se_x_n_sq_over_n"])
        const = docs["constants.json"]
        for key, canonical, floor in (("k1", brownian.CANONICAL_K1, t.k1_floor),
                                      ("k2", brownian.CANONICAL_K2, t.k2_floor)):
            found += _within(canonical.name, const[key]["value"], canonical.value,
                             const[key]["se"], floor, const["reps"])
        ks = docs["limit_check.json"]["ks_distance"]
        if not ks <= KS_MAX:
            found.append(f"KS distance {ks!r} above {KS_MAX}")
        return found


WORKLOADS = {w.name: w for w in (ApeGrid, ShortStationary, BmLimit, CliAll)}
