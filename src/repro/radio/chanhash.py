"""Counter-based (hash) channel randomness.

The dense channel pipeline draws shadowing as a sequential ``(n, n)``
matrix and fading as per-wave ``(k, n)`` blocks, which couples the random
values to *how many* links happen to be materialized.  A sparse execution
path that only touches O(E) links would consume the stream differently
and diverge from the dense path on the very first draw.

The fix is the standard one from parallel/distributed simulation:
**counter-based randomness**.  Every draw is a pure function of a run key
and the *identity* of the thing being drawn —

* shadowing: ``f(key, link)``           (symmetric in the link),
* fast fading: ``f(key, event, tx, rx)`` (one value per transmission pair
  per radio event),

so any subset of links can be evaluated in any order, in any layout
(dense matrix or CSR edge list), and produce bitwise-identical values.
This is what makes the sparse scale path seed-for-seed equal to the dense
reference (see ``tests/test_sparse_parity.py``).

The generator is a SplitMix64 finalizer over a 64-bit pair code
(``min << 32 | max`` for symmetric links, ``tx << 32 | rx`` for directed
events), mapped to uniforms and then through Box–Muller (normals) or
inverse-CDF (exponentials).  SplitMix64's finalizer has full avalanche;
it is the mixer used by ``java.util.SplittableRandom`` and the seeding
path of xoshiro.
"""

from __future__ import annotations

import numpy as np

_U64 = np.uint64
_MASK32 = _U64(0xFFFFFFFF)

#: SplitMix64 constants.
_GAMMA = _U64(0x9E3779B97F4A7C15)
_MIX1 = _U64(0xBF58476D1CE4E5B9)
_MIX2 = _U64(0x94D049BB133111EB)

#: Stream salts so independent quantities never share a hash input.
SALT_SHADOW_U1 = _U64(0x53484144_55313131)
SALT_SHADOW_U2 = _U64(0x53484144_55323232)
SALT_FADING = _U64(0x46414445_4556454E)

#: 2**-53 — maps the top 53 bits of a hash to a uniform in (0, 1).
_INV_2_53 = float(2.0**-53)


def splitmix64(z: np.ndarray | np.uint64) -> np.ndarray | np.uint64:
    """SplitMix64 finalizer: bijective full-avalanche mix of uint64."""
    z = np.asarray(z, dtype=np.uint64)
    with np.errstate(over="ignore"):
        z = (z ^ (z >> _U64(30))) * _MIX1
        z = (z ^ (z >> _U64(27))) * _MIX2
    return z ^ (z >> _U64(31))


def derive_key(key: int, salt: np.uint64) -> np.uint64:
    """Per-stream subkey: mix the run key with a stream salt."""
    return splitmix64(_U64(key) ^ salt ^ _GAMMA)


def hashed_uniform(codes: np.ndarray, subkey: np.uint64) -> np.ndarray:
    """Open-interval uniforms in (0, 1) from pair codes and a subkey.

    The primitive behind every counter-based draw in the repo — channel
    randomness here and the fault decisions of
    :mod:`repro.faults.plan` — so all of them share the layout-
    independence property: a draw depends on the event's identity, not
    on the order or batch shape it is evaluated in.
    """
    h = splitmix64(codes ^ subkey)
    return ((h >> _U64(11)).astype(np.float64) + 0.5) * _INV_2_53


#: Backwards-compatible private alias (pre-existing internal callers).
_uniform = hashed_uniform


def pair_code(i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Symmetric 64-bit code for an unordered node pair (broadcasts)."""
    i = np.asarray(i, dtype=np.uint64)
    j = np.asarray(j, dtype=np.uint64)
    a = np.minimum(i, j)
    b = np.maximum(i, j)
    return (a << _U64(32)) | (b & _MASK32)


def directed_code(tx: np.ndarray, rx: np.ndarray) -> np.ndarray:
    """Order-sensitive 64-bit code for a (tx, rx) pair (broadcasts)."""
    tx = np.asarray(tx, dtype=np.uint64)
    rx = np.asarray(rx, dtype=np.uint64)
    return (tx << _U64(32)) | (rx & _MASK32)


def link_normal(key: int, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Standard normal per unordered link — symmetric: f(i,j) == f(j,i).

    Box–Muller over two independent hashed uniforms.  Deterministic in
    ``(key, {i, j})`` only — independent of array layout or call order.
    """
    code = pair_code(i, j)
    u1 = _uniform(code, derive_key(key, SALT_SHADOW_U1))
    u2 = _uniform(code, derive_key(key, SALT_SHADOW_U2))
    return np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)


def event_exponential(
    key: int, event: int | np.ndarray, tx: np.ndarray, rx: np.ndarray
) -> np.ndarray:
    """Exp(1) draw per (event, tx, rx) — fresh per radio event, directed.

    ``event`` may be a scalar or an array broadcasting against ``tx`` /
    ``rx``; every element hashes independently, so a batched call over
    per-edge event ids is bitwise what per-event scalar calls produce.
    """
    events = np.asarray(event, dtype=np.uint64)
    subkey = splitmix64(derive_key(key, SALT_FADING) ^ events)
    u = _uniform(directed_code(tx, rx), subkey)
    return -np.log1p(-u)
