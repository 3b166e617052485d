"""Fast fading (small-scale, per-transmission).

Table I specifies "UMi (NLOS)" fast fading.  In NLOS conditions the
received envelope is Rayleigh distributed; the corresponding power gain is
exponential with unit mean.  We express the gain in dB so it composes
additively with the path-loss/shadowing pipeline.  A fresh draw is made
per (transmission, receiver) pair, which is the behaviour that matters to
the protocols: a marginal link may hear one beacon and miss the next.

Every draw is counter-hashed (:mod:`repro.radio.chanhash`): a pure
function of the run key, the radio event counter and the directed pair.
:class:`NoFading` is the oracle channel.
"""

from __future__ import annotations

import numpy as np

from repro.radio.chanhash import event_subkeys, keyed_exponential

#: Hashed Rayleigh fading clips the dB gain to this cap.  An Exp(1) power
#: gain exceeds +6 dB (g ≈ 4) with probability e⁻⁴ ≈ 1.8 %; the cap bounds
#: the link budget headroom the sparse candidate generator must allow for
#: beacon decoding on sub-threshold-mean links.  Dense-matrix and per-edge
#: draws apply the same cap, so they stay seed-for-seed identical.
FADE_CAP_DB = 6.0


class HashedRayleighFading:
    """Counter-based Rayleigh (NLOS) fast fading — layout-independent.

    One draw per ``(event, tx, rx)``: a pure hash of the run key, the
    radio event counter and the directed pair (see
    :mod:`repro.radio.chanhash`).  Dense references evaluate it on
    ``(k, n)`` grids, the kernels on CSR edge lists — same values either
    way, which is what makes the two layouts bit-identical.

    The power gain ``g ~ Exp(1)``; the dB offset ``10·log10(g)`` has mean
    ``10·log10(e)·(−γ) ≈ −2.507 dB`` (γ = Euler–Mascheroni) before the
    cap — deep fades are common, large up-fades rare, exactly the
    asymmetry that makes NLOS detection flaky.  The offset is clipped to
    ``[−120 dB, FADE_CAP_DB]``; see the cap's rationale above.
    """

    def __init__(self, key: int) -> None:
        self.key = int(key)

    def link_db(
        self, event: int | np.ndarray, tx: np.ndarray, rx: np.ndarray
    ) -> np.ndarray:
        """dB fading offsets for pairs ``tx → rx`` at ``event`` (broadcasts).

        ``event`` may be a per-edge array (batch kernels); each element
        hashes independently, so batched draws equal scalar ones bitwise.
        """
        return self.keyed_db(self.event_subkeys(event), tx, rx)

    def event_subkeys(self, event: int | np.ndarray) -> np.ndarray | np.uint64:
        """Per-event hash subkeys for :meth:`keyed_db` (derive once per
        event, reuse for every pair drawn at it)."""
        return event_subkeys(self.key, event)

    def keyed_db(
        self, subkey: np.uint64 | np.ndarray, tx: np.ndarray, rx: np.ndarray
    ) -> np.ndarray:
        """:meth:`link_db` with the event already reduced to its subkey
        (scalar or per-pair array); bitwise equal to ``link_db``."""
        gain = keyed_exponential(subkey, tx, rx)
        db = 10.0 * np.log10(np.maximum(gain, 1e-12))
        return np.minimum(db, FADE_CAP_DB)

    def __repr__(self) -> str:
        return f"HashedRayleighFading(key={self.key})"


class NoFading:
    """Oracle channel: no fast fading, received power is the mean."""

    def __repr__(self) -> str:
        return "NoFading()"
