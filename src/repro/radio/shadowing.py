"""Log-normal shadowing (medium-scale fading).

Paper §III eq. (9): the received power deviates from the path-loss mean by
a Gaussian zero-mean random variable ``x`` with variance σ² in dB
(Table I: σ = 10 dB).  Shadowing is a property of the *environment between
two positions*, so we model it per-link, symmetric, and static for the
duration of a run — the standard assumption for stationary devices.

Every draw is counter-hashed (:mod:`repro.radio.chanhash`): a pure
function of the run key and the unordered link, clipped to
``±clip_sigma`` standard deviations.  :class:`NoShadowing` is the
oracle channel.
"""

from __future__ import annotations

import numpy as np

from repro.radio.chanhash import link_normal_from_bits, link_u1_bits, pair_code


class HashedShadowing:
    """Counter-based per-link shadowing — layout-independent draws.

    Each link's value is a pure function of ``(key, {i, j})`` (see
    :mod:`repro.radio.chanhash`), so a dense ``link_matrix`` and a sparse
    per-edge :meth:`link_db` produce bitwise-identical values for the
    same links.  This is what lets the CSR network and the dense helper
    views (and the dense test references) agree bitwise.

    Draws are clipped to ``±clip_sigma`` standard deviations.  Unbounded
    Gaussian shadowing admits arbitrarily large *gains*, which would make
    every pair of devices a potential link and defeat any spatial pruning;
    measured shadowing is bounded in practice, and the clip (default 3σ,
    i.e. 30 dB at Table I's σ = 10 dB) perturbs 0.27 % of draws.  The
    dense matrix and the per-edge draws apply the same clip, so they
    agree bitwise.

    Parameters
    ----------
    sigma_db:
        Standard deviation in dB (Table I uses 10 dB).
    key:
        64-bit run key (drawn once from the shadowing stream).
    clip_sigma:
        Two-sided clip in units of sigma.
    """

    def __init__(self, sigma_db: float, key: int, *, clip_sigma: float = 3.0) -> None:
        if sigma_db < 0:
            raise ValueError(f"sigma_db must be >= 0, got {sigma_db}")
        if clip_sigma <= 0:
            raise ValueError(f"clip_sigma must be positive, got {clip_sigma}")
        self.sigma_db = float(sigma_db)
        self.key = int(key)
        self.clip_sigma = float(clip_sigma)

    @property
    def max_gain_db(self) -> float:
        """Largest possible shadowing *gain* (negative draw magnitude)."""
        return self.clip_sigma * self.sigma_db

    def link_db(self, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        """Shadowing (dB, added to the loss) on links ``i ↔ j`` (broadcasts)."""
        code = pair_code(i, j)
        return self.bits_db(code, self.u1_bits(code))

    def u1_bits(self, code: np.ndarray) -> np.ndarray:
        """Hash bits of the draw's first uniform per pair code
        (:func:`~repro.radio.chanhash.link_u1_bits`); they bound the
        draw's magnitude before the rest of it is computed."""
        return link_u1_bits(self.key, code)

    def bits_db(self, code: np.ndarray, u1_bits: np.ndarray) -> np.ndarray:
        """:meth:`link_db` from pair codes and their :meth:`u1_bits`."""
        z = link_normal_from_bits(self.key, code, u1_bits)
        np.clip(z, -self.clip_sigma, self.clip_sigma, out=z)
        return self.sigma_db * z

    def link_matrix(self, n: int) -> np.ndarray:
        """Dense materialization of :meth:`link_db`, zero diagonal."""
        if n < 0:
            raise ValueError("n must be >= 0")
        idx = np.arange(n)
        sym = self.link_db(idx[:, None], idx[None, :])
        np.fill_diagonal(sym, 0.0)
        return sym

    def __repr__(self) -> str:
        return (
            f"HashedShadowing(sigma_db={self.sigma_db}, key={self.key}, "
            f"clip_sigma={self.clip_sigma})"
        )


class NoShadowing:
    """Deterministic zero-shadowing stand-in (oracle-channel ablations)."""

    sigma_db = 0.0
    max_gain_db = 0.0

    def link_matrix(self, n: int) -> np.ndarray:
        if n < 0:
            raise ValueError("n must be >= 0")
        return np.zeros((n, n))

    def link_db(self, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        return np.zeros(np.broadcast(i, j).shape)

    def __repr__(self) -> str:
        return "NoShadowing()"
