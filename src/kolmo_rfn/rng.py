"""Deterministic random streams.

Every random draw in this package comes from a Philox counter-based bit
generator seeded through :class:`numpy.random.SeedSequence` with a spawn
key.  A pair ``(seed, stream ids...)`` therefore always denotes the same
stream, no matter what other streams were consumed before it or on which
thread.  Components that need several independent sources (normals and
chi-squares of a t sampler, inputs and labels of a dataset, per-row Monte
Carlo substreams) reserve one fixed stream id each, which also makes
prefix reuse possible: drawing more variates from a stream never changes
the ones already drawn.

:func:`substream` is the reference definition of a stream.  For the many
per-row streams ``(seed, ids..., i)`` of a dataset, :func:`row_keys`
derives the Philox keys of all rows at once, by repeating the
``SeedSequence`` hash in vectorized ``uint32`` arithmetic, and
:func:`keyed_generator` re-keys a single generator per row instead of
building a ``SeedSequence`` and a ``Philox`` for each.  Threads that
draw rows at once each re-key a generator of their own from the same
keys, so which thread draws a row never changes its draws.  This relies
on ``SeedSequence`` output being stable across numpy versions, which NEP
19 guarantees; the tests compare every row stream against
:func:`substream`.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

__all__ = ["substream", "row_keys", "keyed_generator", "derive_seed"]

_MASK64 = 0xFFFFFFFFFFFFFFFF

# numpy.random.SeedSequence constants (pool of 4 uint32 words)
_M32 = 0xFFFFFFFF
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _seed_sequence(seed: int, ids) -> np.random.SeedSequence:
    """The ``SeedSequence`` of stream ``ids`` under master ``seed``."""
    return np.random.SeedSequence(
        entropy=int(seed) & _MASK64,
        spawn_key=tuple(int(i) & _MASK64 for i in ids),
    )


def substream(seed: int, *ids: int) -> np.random.Generator:
    """Return the generator for stream ``ids`` under master ``seed``."""
    return np.random.Generator(np.random.Philox(_seed_sequence(seed, ids)))


def _words(value: int) -> list[int]:
    """The uint32 words SeedSequence makes of one integer below 2**64."""

    value = int(value) & _MASK64
    return [value & _M32, value >> 32] if value >> 32 else [value]


def row_keys(seed: int, *ids: int, rows: int) -> np.ndarray:
    """Philox keys (rows, 2) of ``substream(seed, *ids, i)`` for ``i < rows``.

    Mirrors ``SeedSequence(entropy=seed, spawn_key=(*ids, i))``: the
    entropy words (run entropy padded to the pool size, then the spawn
    key) are hashed into the pool, and the key is ``generate_state(2,
    uint64)``.  Every word but the row's is shared, so it is hashed on
    one-element arrays that broadcast against the row indices.
    """

    if not 0 <= rows <= 1 << 32:
        raise ValueError(f"rows must lie in [0, 2**32], got {rows}")
    run = _words(seed)
    words = run + [0] * (_POOL - len(run)) + [w for i in ids for w in _words(i)]
    entropy = [np.array([w], dtype=np.uint64) for w in words]
    entropy.append(np.arange(rows, dtype=np.uint64))
    mask = np.uint64(_M32)
    const = _INIT_A

    def hashmix(value):
        nonlocal const
        value = value ^ np.uint64(const)
        const = const * _MULT_A & _M32
        value = value * np.uint64(const) & mask
        return value ^ (value >> np.uint64(16))

    def mix(x, y):
        out = (np.uint64(_MIX_L) * x - np.uint64(_MIX_R) * y) & mask
        return out ^ (out >> np.uint64(16))

    pool = [hashmix(w) for w in entropy[:_POOL]]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = mix(pool[dst], hashmix(word))

    state = []
    const = _INIT_B
    for word in pool:
        value = word ^ np.uint64(const)
        const = const * _MULT_B & _M32
        value = value * np.uint64(const) & mask
        state.append(value ^ (value >> np.uint64(16)))
    low = state[0] | (state[1] << np.uint64(32))
    high = state[2] | (state[3] << np.uint64(32))
    return np.column_stack([low, high])


def keyed_generator(keys: np.ndarray) -> Callable[[int], np.random.Generator]:
    """Return ``open_row``: ``open_row(i)`` is a generator keyed ``keys[i]``.

    The generator is one Philox generator of this call's own, re-keyed
    in place and in exactly the state ``substream`` returns for the
    stream whose key is ``keys[i]`` (see :func:`row_keys`), so it draws
    the same variates.  Use it before opening the next row; threads that
    draw rows at once each take an ``open_row`` of their own.
    """

    bitgen = np.random.Philox(counter=0, key=0)
    gen = np.random.Generator(bitgen)
    state = bitgen.state  # counter zero, buffer empty

    def open_row(i: int) -> np.random.Generator:
        state["state"]["key"] = keys[i]
        bitgen.state = state
        return gen

    return open_row


def derive_seed(seed: int, *ids: int) -> int:
    """Derive a child integer seed from ``(seed, ids)``.

    Used where a component takes a plain seed of its own (datasets, SGD)
    but must stay isolated from its siblings under one master seed.
    """

    return int(_seed_sequence(seed, ids).generate_state(1, np.uint64)[0])
