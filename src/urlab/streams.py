"""Keyed random-number streams for reproducible parallel replication.

Every consumer of randomness addresses its stream by a (base_seed, role,
index) key instead of drawing from a shared generator.  The key is hashed
through SeedSequence, with a constant third spawn-key word 0, so
replication ``index`` receives the same draws no matter which worker runs
it, in what order replications finish, or how work is chunked.  No path
is ever redrawn, so a key has exactly one stream.

``substream`` is the definition of a key's stream.  ``substreams`` is
the batch path for a block of indices, bit for bit equal to
``substream`` on each key.  It restates the two steps numpy cannot run
over an array of indices.  numpy hashes base_seed and role into
SeedSequence's pool (4 uint32 words); ``_seed_words`` mixes in the index
word and the 0 word and hashes the output in uint32 arrays over up to
``_BLOCK`` indices at a time.  ``_seeded_states`` then takes the one
128-bit LCG step of numpy's ``pcg64_set_seed`` over those words in uint64
limbs.  So ``substreams`` yields one generator per call and writes each
key's state into it in place, through numpy's public ctypes interface,
before yielding it again: a yielded generator is valid until the next
one is yielded.  numpy seeds the first key itself, and the memory it
leaves must equal ``_seeded_states``' row; on a build where it does not
(a different struct layout, or emulated 128-bit math), the call yields a
generator of its own per key instead.  A block with an index outside [0,
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

import ctypes
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


def substream(base_seed: int, role: int, index: int) -> Generator:
    """Independent generator for one (role, index) cell.  The spawn key's
    constant third word 0 is part of the reproducibility contract: without
    it every draw would change."""
    seq = SeedSequence(entropy=base_seed, spawn_key=(role, index, 0))
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


def _seed_words(base_seed: int, role: int, indices: np.ndarray) -> np.ndarray:
    """(len(indices), 4) uint64: ``SeedSequence(base_seed, spawn_key=(role,
    i, 0)).generate_state(4, np.uint64)`` for each i < 2**32.

    numpy's pool holds base_seed's words, zero-padded to the pool size as
    for any spawn key, then role's.  Each word absorbed steps the entropy
    hash constant once per pool word, whatever its value.
    """
    k = len(indices)
    absorbed = max(len(_words(base_seed)), _POOL) + len(_words(role))
    hash_const = _INIT_A * pow(_MULT_A, _POOL * absorbed, 1 << 32) & _MASK32
    prefix = SeedSequence(base_seed, spawn_key=(role,)).pool
    pool = [np.full(k, word, dtype=np.uint32) for word in prefix.tolist()]
    for word in (indices.astype(np.uint32), np.zeros(k, dtype=np.uint32)):
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


# PCG's 128-bit LCG multiplier, as (high, low) uint64 words, and the
# uint32 halves of the low word (numpy/random/src/pcg64/pcg64.h)
_PCG_MUL_HI, _PCG_MUL_LO = np.uint64(0x2360ED051FC65DA4), np.uint64(0x4385DF649FCCF645)
_PCG_MUL_LO_HALVES = np.uint64(0x9FCCF645), np.uint64(0x4385DF64)
_U32, _U63, _U1 = np.uint64(32), np.uint64(63), np.uint64(1)
_LOW32 = np.uint64(_MASK32)


def _add128(a_lo, a_hi, b_lo, b_hi, out_lo=None, out_hi=None):
    """(a + b) mod 2**128 over uint64 (low, high) word arrays."""
    # the carry out of the low words is the top bit of floor((a_lo + b_lo) / 2)
    carry = ((a_lo >> _U1) + (b_lo >> _U1) + (a_lo & b_lo & _U1)) >> _U63
    lo = np.add(a_lo, b_lo, out=out_lo)
    hi = np.add(a_hi + b_hi, carry, out=out_hi)
    return lo, hi


def _mul128(lo, hi):
    """(lo, hi) times PCG's multiplier, mod 2**128, over uint64 word
    arrays.  The high word of lo times the multiplier's low word is summed
    from the products of uint32 halves."""
    m0, m1 = _PCG_MUL_LO_HALVES
    a0, a1 = lo & _LOW32, lo >> _U32
    p01, p10 = a0 * m1, a1 * m0
    mid = (a0 * m0 >> _U32) + (p01 & _LOW32) + (p10 & _LOW32)
    mulhi = a1 * m1 + (p01 >> _U32) + (p10 >> _U32) + (mid >> _U32)
    return lo * _PCG_MUL_LO, mulhi + lo * _PCG_MUL_HI + hi * _PCG_MUL_LO


def _seeded_states(words: np.ndarray) -> np.ndarray:
    """(k, 6) uint64: for each row (init high, init low, seq high, seq low)
    of ``_seed_words``, what numpy's ``pcg64_set_seed`` leaves in the 48
    bytes from a PCG64DXSM's ``ctypes.state_address + 8`` on a build with
    ``__uint128_t``: the buffered 32-bit half's flag and value (0), 8 pad
    bytes (0), then state and inc, each as (low, high) words.

    inc = 2 seq + 1 and state = (inc + init) mul + inc, mod 2**128 (O'Neill
    2014, *PCG*, ``pcg_setseq_128_srandom_r``).
    """
    init_hi, init_lo, seq_hi, seq_lo = words.T
    out = np.zeros((len(words), 6), dtype=np.uint64)
    inc_lo, inc_hi = out[:, 4], out[:, 5]
    np.bitwise_or(seq_lo << _U1, _U1, out=inc_lo)
    np.bitwise_or(seq_hi << _U1, seq_lo >> _U63, out=inc_hi)
    lo, hi = _mul128(*_add128(inc_lo, inc_hi, init_lo, init_hi))
    _add128(lo, hi, inc_lo, inc_hi, out_lo=out[:, 2], out_hi=out[:, 3])
    return out


def substreams(base_seed: int, role: int, indices: np.ndarray) -> Iterator[Generator]:
    """The generators ``substream(base_seed, role, i)`` for each i of
    ``indices``, in order and bit for bit.

    One generator is yielded again and again, re-seeded in place before
    each key, so a yielded generator is valid only until the next one is
    yielded: draw each key's values before advancing.  numpy seeds the
    call's first key itself, and if its state memory differs from
    ``_seeded_states``' row, the call yields a generator of its own per
    key, as numpy seeds it.
    """
    indices = np.asarray(indices, dtype=np.int64)
    state = None  # the shared generator's state memory, once checked
    for start in range(0, len(indices), _BLOCK):
        block = indices[start : start + _BLOCK]
        if min(base_seed, role, block.min()) < 0 or block.max() > _MASK32:
            for index in block.tolist():
                yield substream(base_seed, role, index)
            continue
        words = _seed_words(base_seed, role, block)
        seeded = _seeded_states(words)
        if state is None:
            rng = Generator(PCG64DXSM(_SeedWords(words[0])))
            address = rng.bit_generator.ctypes.state_address + 8
            state = np.frombuffer((ctypes.c_uint64 * 6).from_address(address), np.uint64)
            in_place = state.tobytes() == seeded[0].tobytes()
        if not in_place:
            for key_words in words:
                yield Generator(PCG64DXSM(_SeedWords(key_words)))
            continue
        for row in seeded:
            state[...] = row
            yield rng


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

    ``workers`` is an open pool, mapped over and left open, which takes
    every unit, even one, so a run's own process draws nothing; or a
    process count (None: the usable cores) for a pool of this call's own,
    serial for one unit or a count that leaves one process.
    """
    units = list(units)
    if hasattr(workers, "map"):
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
