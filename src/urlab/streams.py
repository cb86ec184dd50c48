"""Keyed random-number streams for reproducible parallel replication.

Every consumer of randomness addresses its stream by a (base_seed, role,
index, attempt) key instead of drawing from a shared generator.  The key
is hashed through SeedSequence, so replication ``index`` receives the
same draws no matter which worker runs it, in what order replications
finish, or how work is chunked.

``substream`` is the definition of a key's stream.  ``substreams`` is
the batch path for a block of indices, bit for bit equal to
``substream`` on each key.  It restates only the part of SeedSequence's
hashing (pool of 4 uint32 words) that numpy cannot run over an array of
indices: numpy hashes base_seed and role into the pool, ``_seed_words``
mixes in the index and attempt words and hashes the output in uint32
arrays over up to ``_BLOCK`` indices at a time, and numpy seeds a fresh
PCG64DXSM from each key's words.  A block with an index outside [0,
2**32), which SeedSequence splits into more than one word, or a negative
key part, falls back to ``substream``.

Since every unit of work is keyed this way, it can run in any process:
``map_units`` maps a function over index-ordered units, serially or over
a pool, and returns the results in unit order.  Its ``workers`` is an
open pool, such as a run's ``run_pool``, or a process count (None: the
usable cores).  Only this module opens process pools.

Each engine works a unit in tiles of ``tile_rows`` rows, about
``_TILE_VALUES`` values, in buffers its thread reuses (``tile_buffers``).
``brownian._BATCH_VALUES`` is a stream key: batch b draws from
``substream(base_seed, role, b)``.  ``_TILE_VALUES`` and the finite-n
block sizes ``monte_carlo._CHUNK`` and ``_ROW_VALUES`` change no bit.
"""

from __future__ import annotations

import os
import threading
from collections.abc import Iterator
from concurrent.futures import Executor, ProcessPoolExecutor
from contextlib import nullcontext
from functools import lru_cache

import numpy as np
from numpy.random import Generator, PCG64DXSM, SeedSequence
from numpy.random.bit_generator import ISeedSequence

# Series roles.  Keep values stable: they are part of the reproducibility
# contract (changing them reshuffles every seeded experiment).
ROLE_PATH = 0       # finite-n trajectory innovations, one stream per replication
ROLE_BM = 1         # Brownian batches for limit-law sampling
ROLE_CONSTANTS = 2  # Brownian batches for constant estimation


def substream(base_seed: int, role: int, index: int, attempt: int = 0) -> Generator:
    """Independent generator for one (role, index, attempt) cell.

    ``attempt`` > 0 tags resampled replacements for degenerate draws so
    that retries stay deterministic too.
    """
    seq = SeedSequence(entropy=base_seed, spawn_key=(role, index, attempt))
    return Generator(PCG64DXSM(seq))


# SeedSequence's hashing constants (numpy/random/bit_generator.pyx).
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875  # entropy hashing
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED  # output hashing
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFF_FFFF

_BLOCK = 1024  # indices per vectorized pass; bounds the uint32 temporaries
_TILE_VALUES = 1 << 17  # values per tile of a work unit: 1 MiB of float64


def _words(value: int) -> list[int]:
    """Little-endian uint32 words of a non-negative int, as SeedSequence
    splits it (0 is one word)."""
    out = [value & _MASK32]
    value >>= 32
    while value:
        out.append(value & _MASK32)
        value >>= 32
    return out


def _hashmix(value: np.ndarray, hash_const: int) -> tuple[np.ndarray, int]:
    """(hashed words, next hash constant) of a uint32 array."""
    value = value ^ hash_const
    hash_const = hash_const * _MULT_A & _MASK32
    value = value * hash_const
    return value ^ value >> 16, hash_const


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """SeedSequence's mix of two uint32 arrays of words."""
    out = x * _MIX_L - y * _MIX_R
    return out ^ out >> 16


def _seed_words(base_seed: int, role: int, indices: np.ndarray, attempt: int) -> np.ndarray:
    """(len(indices), 4) uint64: ``SeedSequence(base_seed, spawn_key=(role,
    i, attempt)).generate_state(4, np.uint64)`` for each i < 2**32.

    numpy's pool holds base_seed's words, zero-padded to the pool size as
    for any spawn key, then role's.  Each word absorbed steps the entropy
    hash constant once per pool word, whatever its value.
    """
    k = len(indices)
    absorbed = max(len(_words(base_seed)), _POOL) + len(_words(role))
    hash_const = _INIT_A * pow(_MULT_A, _POOL * absorbed, 1 << 32) & _MASK32
    prefix = SeedSequence(base_seed, spawn_key=(role,)).pool
    pool = [np.full(k, word, dtype=np.uint32) for word in prefix.tolist()]
    attempt_words = [np.full(k, word, dtype=np.uint32) for word in _words(attempt)]
    for word in [indices.astype(np.uint32)] + attempt_words:
        for dst in range(_POOL):
            hashed, hash_const = _hashmix(word, hash_const)
            pool[dst] = _mix(pool[dst], hashed)
    state = np.empty((k, 2 * _POOL), dtype="<u4")
    hash_const = _INIT_B
    for j in range(2 * _POOL):
        word = pool[j % _POOL] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        word *= hash_const
        state[:, j] = word ^ word >> 16
    return state.view("<u8").astype(np.uint64)


class _SeedWords(ISeedSequence):
    """One key's four uint64 seed words, which is all PCG64DXSM asks of
    its seed sequence: ``generate_state(4, np.uint64)``."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32) -> np.ndarray:
        return self.words


def substreams(
    base_seed: int, role: int, indices: np.ndarray, attempt: int = 0
) -> Iterator[Generator]:
    """The generators ``substream(base_seed, role, i, attempt)`` for each i
    of ``indices``, in order and bit for bit, each a generator of its own."""
    indices = np.asarray(indices, dtype=np.int64)
    for start in range(0, len(indices), _BLOCK):
        block = indices[start : start + _BLOCK]
        if min(base_seed, role, attempt, block.min()) < 0 or block.max() > _MASK32:
            for index in block.tolist():
                yield substream(base_seed, role, index, attempt)
            continue
        for words in _seed_words(base_seed, role, block, attempt):
            yield Generator(PCG64DXSM(_SeedWords(words)))


def usable_cores() -> int:
    """Cores this process may run on: what a worker count of None means."""
    return len(os.sched_getaffinity(0))


def _processes(workers: int | None, units: int | None = None) -> int:
    """min(``workers`` (None: the usable cores), usable cores, ``units``):
    a pool forks all its processes up front, and more would idle."""
    cores = usable_cores()
    count = min(cores if workers is None else workers, cores)
    return count if units is None else min(count, units)


def run_pool(workers: int | None = None) -> ProcessPoolExecutor | nullcontext:
    """A context that yields 1, or one open process pool for every stage of
    a run to take as ``workers``, and closes it on exit."""
    processes = _processes(workers)
    return ProcessPoolExecutor(max_workers=processes) if processes > 1 else nullcontext(1)


def map_units(fn, units, workers: int | Executor | None = None) -> list:
    """``[fn(u) for u in units]``, in unit order.

    ``workers`` is an open pool, mapped over and left open, or a process
    count (None: the usable cores) for a pool of this call's own.  One
    unit, or a count that leaves one process, runs serially.
    """
    units = list(units)
    if len(units) > 1 and hasattr(workers, "map"):
        return list(workers.map(fn, units))
    processes = _processes(workers, len(units)) if len(units) > 1 else 1
    if processes < 2:
        return list(map(fn, units))
    with ProcessPoolExecutor(max_workers=processes) as pool:
        return list(pool.map(fn, units))


def tile_rows(rows: int, values_per_row: int) -> int:
    """Rows per tile of a ``rows``-row unit: about ``_TILE_VALUES`` values."""
    return min(rows, max(1, _TILE_VALUES // values_per_row))


def tile_buffers(*specs) -> tuple[np.ndarray, ...]:
    """``np.empty(shape, dtype)`` per (shape, dtype) spec: the same arrays on
    each call from this thread with these specs, and never another's."""
    return _thread_buffers(specs, threading.get_ident())


@lru_cache(maxsize=1)
def _thread_buffers(specs: tuple, thread: int) -> tuple[np.ndarray, ...]:
    return tuple(np.empty(shape, dtype) for shape, dtype in specs)
