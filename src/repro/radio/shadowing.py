"""Log-normal shadowing (medium-scale fading).

Paper §III eq. (9): the received power deviates from the path-loss mean by
a Gaussian zero-mean random variable ``x`` with variance σ² in dB
(Table I: σ = 10 dB).  Shadowing is a property of the *environment between
two positions*, so we model it per-link, symmetric, and static for the
duration of a run — the standard assumption for stationary devices.
"""

from __future__ import annotations

import numpy as np

from repro.radio.chanhash import link_normal


class LogNormalShadowing:
    """Per-link symmetric log-normal shadowing.

    Parameters
    ----------
    sigma_db:
        Standard deviation in dB (Table I uses 10 dB).
    rng:
        NumPy generator for the link draws.
    """

    def __init__(self, sigma_db: float, rng: np.random.Generator) -> None:
        if sigma_db < 0:
            raise ValueError(f"sigma_db must be >= 0, got {sigma_db}")
        self.sigma_db = float(sigma_db)
        self._rng = rng

    def link_matrix(self, n: int) -> np.ndarray:
        """Symmetric ``n×n`` matrix of shadowing values (dB), zero diagonal.

        Entry [i, j] is *added to the loss* on link i↔j (a positive draw
        means extra attenuation).
        """
        if n < 0:
            raise ValueError("n must be >= 0")
        draws = self._rng.normal(0.0, self.sigma_db, size=(n, n))
        upper = np.triu(draws, k=1)
        sym = upper + upper.T
        np.fill_diagonal(sym, 0.0)
        return sym

    def sample(self, size: int | tuple[int, ...] = 1) -> np.ndarray:
        """Raw i.i.d. shadowing draws (dB) — used by the RSSI error model."""
        return self._rng.normal(0.0, self.sigma_db, size=size)

    def __repr__(self) -> str:
        return f"LogNormalShadowing(sigma_db={self.sigma_db})"


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
        z = link_normal(self.key, i, j)
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

    def sample(self, size: int | tuple[int, ...] = 1) -> np.ndarray:
        return np.zeros(size if isinstance(size, tuple) else (size,))

    def __repr__(self) -> str:
        return "NoShadowing()"
