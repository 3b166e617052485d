"""Fast fading (small-scale, per-transmission).

Table I specifies "UMi (NLOS)" fast fading.  In NLOS conditions the
received envelope is Rayleigh distributed; the corresponding power gain is
exponential with unit mean.  We express the gain in dB so it composes
additively with the path-loss/shadowing pipeline.  A fresh draw is made
per (transmission, receiver) pair, which is the behaviour that matters to
the protocols: a marginal link may hear one beacon and miss the next.
"""

from __future__ import annotations

import numpy as np

from repro.radio.chanhash import event_exponential

#: Hashed Rayleigh fading clips the dB gain to this cap.  An Exp(1) power
#: gain exceeds +6 dB (g ≈ 4) with probability e⁻⁴ ≈ 1.8 %; the cap bounds
#: the link budget headroom the sparse candidate generator must allow for
#: beacon decoding on sub-threshold-mean links.  Dense-matrix and per-edge
#: draws apply the same cap, so they stay seed-for-seed identical.
FADE_CAP_DB = 6.0

#: Floor matching the legacy ``max(gain, 1e-12)`` clamp (−120 dB).
FADE_FLOOR_DB = -120.0


class HashedRayleighFading:
    """Counter-based Rayleigh (NLOS) fast fading — layout-independent.

    One draw per ``(event, tx, rx)``: a pure hash of the run key, the
    radio event counter and the directed pair (see
    :mod:`repro.radio.chanhash`).  Dense kernels evaluate it on ``(k, n)``
    grids, sparse kernels on CSR edge lists — same values either way,
    which is what makes the two execution paths bit-identical.

    The dB offset is clipped to ``[FADE_FLOOR_DB, FADE_CAP_DB]``; see the
    cap's rationale above.
    """

    def __init__(self, key: int) -> None:
        self.key = int(key)
        self._analysis_rng: np.random.Generator | None = None

    def link_db(
        self, event: int | np.ndarray, tx: np.ndarray, rx: np.ndarray
    ) -> np.ndarray:
        """dB fading offsets for pairs ``tx → rx`` at ``event`` (broadcasts).

        ``event`` may be a per-edge array (batch kernels); each element
        hashes independently, so batched draws equal scalar ones bitwise.
        """
        gain = event_exponential(self.key, event, tx, rx)
        db = 10.0 * np.log10(np.maximum(gain, 1e-12))
        return np.minimum(db, FADE_CAP_DB)

    def sample_db(self, size: int | tuple[int, ...] = 1) -> np.ndarray:
        """Stream-style draws for analysis paths (``LinkBudget.broadcast``).

        Hot kernels never call this — they use :meth:`link_db`.  The
        private generator is seeded from the key, so analysis runs stay
        reproducible without perturbing any counter-based draw.
        """
        if self._analysis_rng is None:
            self._analysis_rng = np.random.default_rng(self.key)
        gain = self._analysis_rng.exponential(1.0, size=size)
        db = 10.0 * np.log10(np.maximum(gain, 1e-12))
        return np.minimum(db, FADE_CAP_DB)

    def __repr__(self) -> str:
        return f"HashedRayleighFading(key={self.key})"


class RayleighFading:
    """Rayleigh (NLOS) fast fading expressed as a dB power offset.

    The power gain ``g ~ Exp(1)``; the dB offset is ``10·log10(g)``, which
    has mean ``10·log10(e)·(−γ) ≈ −2.507 dB`` (γ = Euler–Mascheroni) — deep
    fades are common, large up-fades rare, exactly the asymmetry that makes
    NLOS detection flaky.
    """

    def __init__(self, rng: np.random.Generator) -> None:
        self._rng = rng

    def sample_db(self, size: int | tuple[int, ...] = 1) -> np.ndarray:
        gain = self._rng.exponential(1.0, size=size)
        # Clamp so a pathological 0 draw cannot produce -inf dB.
        return 10.0 * np.log10(np.maximum(gain, 1e-12))

    def __repr__(self) -> str:
        return "RayleighFading()"


class NoFading:
    """Deterministic zero-fading stand-in."""

    def sample_db(self, size: int | tuple[int, ...] = 1) -> np.ndarray:
        return np.zeros(size if isinstance(size, tuple) else (size,))

    def __repr__(self) -> str:
        return "NoFading()"
