import importlib
import os
import pkgutil
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import urlab
from urlab import (
    ExperimentConfig,
    FilterSpec,
    InnovationSpec,
    LimitParams,
    brownian,
    estimate_constants,
    limit_sample_batch,
    monte_carlo,
    sample_statistics,
    streams,
)
from urlab.streams import ROLE_BM, ROLE_CONSTANTS, ROLE_PATH, substream, substreams

WORD = 2**32
BASE_SEEDS = [0, 7, WORD - 1, WORD, WORD + 5, 2**64, 2**64 + 3, 12 * 10**21, 2**130 + 9]


def _assert_equal_streams(base_seed, role, indices, attempt):
    indices = list(indices)
    got = substreams(base_seed, role, np.array(indices, dtype=np.int64), attempt)
    count = 0
    for index, rng in zip(indices, got):
        ref = substream(base_seed, role, index, attempt)
        assert rng.bit_generator.state == ref.bit_generator.state, (base_seed, role, index)
        # a buffered 32-bit half must not leak into the next index
        assert rng.integers(0, WORD, 3, dtype=np.uint32).tolist() == ref.integers(
            0, WORD, 3, dtype=np.uint32
        ).tolist()
        assert rng.standard_normal(5).tobytes() == ref.standard_normal(5).tobytes()
        count += 1
    assert count == len(indices)


@pytest.mark.parametrize("role", [ROLE_PATH, ROLE_BM, ROLE_CONSTANTS])
@pytest.mark.parametrize("attempt", [0, 1, 3, WORD + 1])
def test_batch_streams_equal_substream(role, attempt):
    for base_seed in BASE_SEEDS:
        _assert_equal_streams(base_seed, role, [0, 1, 2, 999, 2**31, WORD - 2, WORD - 1], attempt)


def test_batch_streams_are_independent_generators():
    gens = list(substreams(7, ROLE_PATH, np.arange(5), 0))
    for i in reversed(range(5)):
        ref = substream(7, ROLE_PATH, i, 0)
        assert gens[i].standard_normal(5).tobytes() == ref.standard_normal(5).tobytes(), i


def test_seed_words_equal_seed_sequence():
    indices = np.array([0, 5, 2**20, WORD - 1])
    for base_seed in BASE_SEEDS:
        words = streams._seed_words(base_seed, 2, indices, 3)
        for index, row in zip(indices.tolist(), words):
            seq = np.random.SeedSequence(base_seed, spawn_key=(2, index, 3))
            assert row.tolist() == seq.generate_state(4, np.uint64).tolist()


def test_blocks_span_several_passes(monkeypatch):
    monkeypatch.setattr(streams, "_BLOCK", 7)
    _assert_equal_streams(41, ROLE_PATH, range(30), 0)
    _assert_equal_streams(41, ROLE_PATH, [29, 3, 17, 3], 2)


def test_keys_beyond_one_word_fall_back(monkeypatch):
    monkeypatch.setattr(streams, "_BLOCK", 3)
    # blocks (2**32 - 1, 2**32, 5) and (2**33 + 5, 6) need two-word indices
    _assert_equal_streams(7, ROLE_PATH, [WORD - 1, WORD, 5, 2**33 + 5, 6, 8], 1)


def test_negative_key_fails_as_substream_does():
    with pytest.raises(ValueError, match="non-negative"):
        next(substreams(-1, ROLE_PATH, np.arange(3)))
    with pytest.raises(ValueError, match="non-negative"):
        substream(-1, ROLE_PATH, 0)


def _run_each_engine(workers=None) -> None:
    # 3 finite blocks of 40 reps; 7 Brownian batches of 30 paths (19 values
    # each at grid 16) in each sampler
    cfg = ExperimentConfig(
        filter_spec=FilterSpec(family="finite", coeffs=(1.0,)),
        innovations=InnovationSpec(pi=1.0),
        beta=1.0,
        n_grid=(50,),
        reps=100,
        base_seed=0,
        statistics=("fpe_stat",),
    )
    p = LimitParams(rho=0.6, sigma_omega=1.2, sigma_theta=0.7, theta=1.5)
    sample_statistics(cfg, (50,), workers=workers)
    estimate_constants(m=16, reps=200, base_seed=3, workers=workers)
    limit_sample_batch(p, 16, 200, base_seed=3, workers=workers)


@pytest.mark.parametrize("cores,opened", [(2, [2, 2, 2]), (1, []), (8, [3, 7, 7])])
def test_workers_default_to_the_usable_cores(monkeypatch, counting_pool, cores, opened):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)))
    monkeypatch.setattr(monte_carlo, "_CHUNK", 40)
    monkeypatch.setattr(brownian, "_BATCH_VALUES", 30 * 19)
    _run_each_engine()
    assert counting_pool[0] == opened
    _run_each_engine(workers=1)
    assert counting_pool[0] == opened


def _square(u):
    return u * u


def test_map_units_takes_a_count_or_an_open_pool(counting_pool):
    squares = [u * u for u in range(5)]
    for count in (1, 0):
        assert streams.map_units(_square, range(5), count) == squares
    assert counting_pool == ([], [])
    with ThreadPoolExecutor(max_workers=2) as pool:
        assert streams.map_units(_square, range(5), pool) == squares
        assert pool.submit(_square, 3).result() == 9  # left open
    stand_in = streams.ProcessPoolExecutor(max_workers=2)  # counting_pool's serial stand-in
    assert streams.map_units(_square, range(5), stand_in) == squares
    assert streams.map_units(_square, [4], stand_in) == [16]  # one unit: serial
    assert counting_pool == ([2], [5])


def test_run_over_a_callers_pool_equals_serial(monkeypatch):
    monkeypatch.setattr(monte_carlo, "_CHUNK", 40)  # 3 blocks
    cfg = ExperimentConfig(
        filter_spec=FilterSpec(family="finite", coeffs=(1.0,)),
        innovations=InnovationSpec(pi=1.0),
        beta=1.0,
        n_grid=(30, 50),
        reps=100,
        base_seed=0,
        statistics=("fpe_stat", "excess_ape"),
    )
    with ThreadPoolExecutor(max_workers=2) as pool:
        threaded = monte_carlo.run(cfg, workers=pool)
    assert repr(threaded) == repr(monte_carlo.run(cfg, workers=1))


def test_only_streams_holds_a_process_pool():
    # one owner of process pools: a second would size them by its own rule
    names = [f"urlab.{m.name}" for m in pkgutil.iter_modules(urlab.__path__)]
    holders = [
        name for name in ["urlab", *names]
        if "ProcessPoolExecutor" in vars(importlib.import_module(name))
    ]
    assert holders == ["urlab.streams"]
