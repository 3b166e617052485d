"""Counter-based (hash) channel randomness — the one source of it.

A channel drawn from a sequential generator couples the random values to
*how many* links happen to be materialized and in which order: a sparse
path that only touches O(E) links would consume the stream differently
from a dense one and diverge on the very first draw.

The fix is the standard one from parallel/distributed simulation:
**counter-based randomness**.  Every draw is a pure function of a run key
and the *identity* of the thing being drawn —

* shadowing: ``f(key, link)``           (symmetric in the link),
* fast fading: ``f(key, event, tx, rx)`` (one value per transmission pair
  per radio event),

so any subset of links can be evaluated in any order, in any layout
(dense matrix or CSR edge list), and produce bitwise-identical values.
This is what makes the CSR simulations seed-for-seed equal to the dense
references (see ``tests/test_sparse_parity.py``).

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
    if z.ndim:
        return _mix_inplace(z.copy())
    # numpy scalars: plain operators beat 0-d in-place ops several-fold
    with np.errstate(over="ignore"):
        z = (z ^ (z >> _U64(30))) * _MIX1
        z = (z ^ (z >> _U64(27))) * _MIX2
    return z ^ (z >> _U64(31))


def _mix_inplace(z: np.ndarray) -> np.ndarray:
    """:func:`splitmix64` of an owned uint64 array, computed in place."""
    with np.errstate(over="ignore"):
        z ^= z >> _U64(30)
        z *= _MIX1
        z ^= z >> _U64(27)
        z *= _MIX2
        z ^= z >> _U64(31)
    return z


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
    return bits_uniform(hashed_bits(codes, subkey))


def hashed_bits(codes: np.ndarray, subkey: np.uint64) -> np.ndarray:
    """The top 53 hash bits behind :func:`hashed_uniform` (uint64)."""
    h = codes ^ subkey
    if not isinstance(h, np.ndarray):
        return splitmix64(h) >> _U64(11)
    _mix_inplace(h)
    h >>= _U64(11)
    return h


def bits_uniform(bits: np.ndarray) -> np.ndarray:
    """Map 53 hash bits to the open-interval uniform ``(b + ½)·2⁻⁵³``."""
    return (bits.astype(np.float64) + 0.5) * _INV_2_53


def pair_code(i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Symmetric 64-bit code for an unordered node pair (broadcasts)."""
    i = np.asarray(i, dtype=np.uint64)
    j = np.asarray(j, dtype=np.uint64)
    a = np.minimum(i, j)
    b = np.maximum(i, j)
    if a.ndim == 0:
        return (a << _U64(32)) | (b & _MASK32)
    a <<= _U64(32)
    b &= _MASK32
    a |= b
    return a


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
    return link_normal_from_bits(key, code, link_u1_bits(key, code))


def link_u1_bits(key: int, code: np.ndarray) -> np.ndarray:
    """Hash bits of :func:`link_normal`'s first uniform per pair code.

    ``u₁ = (b + ½)·2⁻⁵³`` bounds the draw — ``|z| ≤ √(−2 ln u₁)`` — so a
    consumer can reject a link on these bits alone (see
    :mod:`repro.radio.linkeval`) and finish the survivors with
    :func:`link_normal_from_bits`.
    """
    return hashed_bits(code, derive_key(key, SALT_SHADOW_U1))


def link_normal_from_bits(
    key: int, code: np.ndarray, u1_bits: np.ndarray
) -> np.ndarray:
    """Box–Muller normal from pair codes and their :func:`link_u1_bits`."""
    u1 = bits_uniform(u1_bits)
    u2 = hashed_uniform(code, derive_key(key, SALT_SHADOW_U2))
    return np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)


def event_subkeys(key: int, event: int | np.ndarray) -> np.ndarray | np.uint64:
    """Fading subkey per radio event: the event half of the fading hash.

    A kernel that draws many pairs per event derives each event's subkey
    once and passes it to :func:`keyed_exponential`; the pair is bitwise
    :func:`event_exponential`.
    """
    events = np.asarray(event, dtype=np.uint64)
    return splitmix64(derive_key(key, SALT_FADING) ^ events)


def keyed_exponential(
    subkey: np.uint64 | np.ndarray, tx: np.ndarray, rx: np.ndarray
) -> np.ndarray:
    """Exp(1) draw per (subkey, tx, rx); ``subkey`` from :func:`event_subkeys`
    (a scalar, or an array broadcasting against ``tx`` / ``rx``)."""
    u = hashed_uniform(directed_code(tx, rx), subkey)
    return -np.log1p(-u)


def event_exponential(
    key: int, event: int | np.ndarray, tx: np.ndarray, rx: np.ndarray
) -> np.ndarray:
    """Exp(1) draw per (event, tx, rx) — fresh per radio event, directed.

    ``event`` may be a scalar or an array broadcasting against ``tx`` /
    ``rx``; every element hashes independently, so a batched call over
    per-edge event ids is bitwise what per-event scalar calls produce.
    """
    return keyed_exponential(event_subkeys(key, event), tx, rx)
