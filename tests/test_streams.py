import ctypes
import importlib
import os
import pkgutil
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

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


def _assert_equal_streams(base_seed, role, indices):
    indices = list(indices)
    got = substreams(base_seed, role, np.array(indices, dtype=np.int64))
    count = 0
    for index, rng in zip(indices, got):
        ref = substream(base_seed, role, index)
        assert rng.bit_generator.state == ref.bit_generator.state, (base_seed, role, index)
        # a buffered 32-bit half must not leak into the next index
        assert rng.integers(0, WORD, 3, dtype=np.uint32).tolist() == ref.integers(
            0, WORD, 3, dtype=np.uint32
        ).tolist()
        assert rng.standard_normal(5).tobytes() == ref.standard_normal(5).tobytes()
        count += 1
    assert count == len(indices)


@pytest.mark.parametrize("role", [ROLE_PATH, ROLE_BM, ROLE_CONSTANTS])
@pytest.mark.parametrize("last", [0, 1, 3, WORD + 1])
def test_batch_streams_equal_substream(role, last):
    # the one-word edge indices, then ``last``; 2**32 + 1 needs two words,
    # so with it the whole block falls back to substream
    for base_seed in BASE_SEEDS:
        _assert_equal_streams(base_seed, role, [0, 1, 2, 999, 2**31, WORD - 2, WORD - 1, last])


def test_batch_streams_reseed_one_generator_in_place(generators_built):
    # one generator per call, re-seeded before each key: what is drawn
    # from it before the next key is substream's
    yielded = []
    for index, rng in enumerate(substreams(7, ROLE_PATH, np.arange(5))):
        yielded.append(rng)
        ref = substream(7, ROLE_PATH, index)
        assert rng.standard_normal(5).tobytes() == ref.standard_normal(5).tobytes(), index
    assert len(yielded) == 5 and all(rng is yielded[0] for rng in yielded)
    assert generators_built[0] == 1 + 5  # the layout check's, then the references


def test_a_state_layout_mismatch_falls_back_to_a_generator_per_key(
    monkeypatch, misplaced_layout, generators_built
):
    gens = list(substreams(7, ROLE_PATH, np.arange(5)))
    assert len({id(rng) for rng in gens}) == 5
    assert generators_built[0] == 1 + 5
    monkeypatch.setattr(streams, "_BLOCK", 7)
    for base_seed in (0, 41, WORD + 5):
        _assert_equal_streams(base_seed, ROLE_PATH, range(30))
    _assert_equal_streams(7, ROLE_PATH, [WORD - 1, WORD, 5, 2**33 + 5, 6, 8])


_U64 = st.integers(0, 2**64 - 1)
_EDGES = st.sampled_from([0, 1, 2**63 - 1, 2**63, 2**64 - 1])


@given(st.lists(st.one_of(_U64, _EDGES), min_size=4, max_size=4))
@example([2**64 - 1] * 4)  # every limb sum and product carries
@example([0, 0, 0, 2**63])  # seq's low top bit shifts into inc's high word
@example([2**64 - 1, 2**64 - 1, 0, 2**63 + 1])
@example([0, 2**64 - 1, 0, 0])  # inc's and init's low words sum to 2**64
def test_seeded_states_equal_numpy_seeding(words):
    words = np.array(words, dtype=np.uint64)
    bit_generator = np.random.PCG64DXSM(streams._SeedWords(words))
    state = bit_generator.state["state"]
    expect = [state["state"] % 2**64, state["state"] >> 64, state["inc"] % 2**64, state["inc"] >> 64]
    got = streams._seeded_states(words[None])
    assert got[0, 2:].tolist() == expect
    address = bit_generator.ctypes.state_address + 8
    memory = np.ctypeslib.as_array((ctypes.c_uint64 * 6).from_address(address))
    assert got[0].tolist() == memory.tolist()


def test_replications_build_no_generator_of_their_own(monkeypatch, generators_built):
    # 5000 reps of n = 50 in two work units: one generator per substreams
    # call, the layout check's, and none per replication
    cfg = ExperimentConfig(
        filter_spec=FilterSpec(family="finite", coeffs=(1.0,)),
        innovations=InnovationSpec(pi=1.0),
        varsigma=0.5,
        n_grid=(50,),
        reps=5000,
        base_seed=0,
        statistics=("fpe_stat",),
    )
    calls = [0]
    seeded = monte_carlo.substreams

    def counted(*args):
        calls[0] += 1
        return seeded(*args)

    monkeypatch.setattr(monte_carlo, "substreams", counted)
    sample_statistics(cfg, cfg.n_grid, workers=1)
    assert calls[0] == 2
    assert generators_built[0] <= calls[0]


def test_seed_words_equal_seed_sequence():
    indices = np.array([0, 5, 2**20, WORD - 1])
    for base_seed in BASE_SEEDS:
        words = streams._seed_words(base_seed, 2, indices)
        for index, row in zip(indices.tolist(), words):
            # the key's constant third word 0 keeps every stream's draws
            seq = np.random.SeedSequence(base_seed, spawn_key=(2, index, 0))
            assert row.tolist() == seq.generate_state(4, np.uint64).tolist()
            ref = np.random.Generator(np.random.PCG64DXSM(seq))
            assert substream(base_seed, 2, index).bit_generator.state == ref.bit_generator.state


def test_blocks_span_several_passes(monkeypatch):
    monkeypatch.setattr(streams, "_BLOCK", 7)
    _assert_equal_streams(41, ROLE_PATH, range(30))
    _assert_equal_streams(41, ROLE_PATH, [29, 3, 17, 3])


def test_keys_beyond_one_word_fall_back(monkeypatch):
    monkeypatch.setattr(streams, "_BLOCK", 3)
    # blocks (2**32 - 1, 2**32, 5) and (2**33 + 5, 6) need two-word indices
    _assert_equal_streams(7, ROLE_PATH, [WORD - 1, WORD, 5, 2**33 + 5, 6, 8])


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
