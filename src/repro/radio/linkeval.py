"""One link evaluator for the network build and the shard halo.

Both the CSR link budget (:class:`~repro.radio.sparse_link.
SparseLinkBudget`) and the shard halo (:func:`~repro.shard.halo.
cross_links`) ask the same question of every candidate pair the cell
grid produces: is its mean received power ``tx − loss(d) − shadow`` at
or above a floor?  :class:`LinkEvaluator` answers it over the grid's
block slices (:func:`~repro.radio.spatial.pair_slices`) in three steps:

1. **Early rejection.**  Clipped shadowing gives at most
   ``σ·min(R, clip)`` dB of gain, where ``R = √(−2 ln u₁)`` bounds the
   Box–Muller draw (``|z| ≤ R``).  A pair in d²-bin ``k`` needs a gain
   of at least ``g_k = loss(d_k) − (tx − floor)``, with ``d_k`` the
   bin's near edge, so it is dropped when ``σ·min(R, clip) < g_k``.
   That test is one integer comparison of ``u₁``'s 53 hash bits against
   a per-bin threshold computed once per evaluator — one SplitMix64 pass
   per pair and no float math.
2. **Exact evaluation.**  Only the survivors get ``u₂``, the cosine, the
   exact distance filter, ``loss_db`` and the power, with the same
   expressions as :meth:`~repro.radio.shadowing.HashedShadowing.link_db`,
   so their values are bitwise what a direct evaluation gives.
3. **Floor.**  ``power ≥ floor`` keeps the link.

The rejection is exact — it never drops a pair the exact test keeps —
because path loss is **monotone non-decreasing** in distance (the same
assumption :func:`~repro.radio.pathloss.max_range_m` makes): every pair
in bin ``k`` needs at least ``g_k``.  The near edge is pulled in by a
relative 10⁻¹² and ``g_k`` lowered by :data:`_SLACK_DB`, so float
rounding in the bin index, the logarithm or the power sum can only make
the test keep more.  Models without per-pair hash bits (``NoShadowing``
or any shadowing with just ``link_db``) reject on ``g_k > max_gain_db``.
"""

from __future__ import annotations

import numpy as np

from repro.radio.chanhash import pair_code
from repro.radio.pathloss import PathLossModel
from repro.radio.spatial import DEFAULT_CHUNK_PAIRS, pair_slices

#: Uniform d² bins over ``[0, max_d2]`` for the rejection thresholds.
#: Equal d² widths hold equal pair counts at uniform density.
REJECT_BINS = 4096

#: dB subtracted from every bin's needed gain: float rounding in the
#: power sum is ~10⁻¹³ dB, so the test stays conservative.
_SLACK_DB = 1e-9

#: Threshold that keeps every hash value (53-bit draws are < 2⁵³).
_KEEP_ALL = 1 << 53

_MASK32 = np.uint64(0xFFFFFFFF)


class LinkEvaluator:
    """Mean-power link evaluation over cell-grid candidate pairs.

    Parameters
    ----------
    pathloss:
        Monotone non-decreasing path-loss model.
    tx_power_dbm, floor_dbm:
        Transmit power and the mean power a link must reach.
    shadowing:
        ``HashedShadowing`` (early rejection on hash bits), or any model
        with ``link_db`` and ``max_gain_db`` such as ``NoShadowing``.
    radius_m:
        Candidate radius: the cell side of the grid.
    max_d2:
        Exact squared-distance cut (default ``radius_m²``).
    """

    def __init__(
        self,
        pathloss: PathLossModel,
        *,
        tx_power_dbm: float,
        floor_dbm: float,
        shadowing,
        radius_m: float,
        max_d2: float | None = None,
    ) -> None:
        self.pathloss = pathloss
        self.tx_power_dbm = float(tx_power_dbm)
        self.floor_dbm = float(floor_dbm)
        self.shadowing = shadowing
        self.radius_m = float(radius_m)
        self.max_d2 = (
            self.radius_m * self.radius_m if max_d2 is None else float(max_d2)
        )
        self._hashed = (
            hasattr(shadowing, "u1_bits") and shadowing.sigma_db > 0
        )
        self._thresholds = self.bin_thresholds()
        self._bin_scale = REJECT_BINS / self.max_d2 if self.max_d2 > 0 else 0.0

    def bin_thresholds(self) -> np.ndarray:
        """Per-d²-bin largest ``u₁`` hash value a surviving pair can have.

        ``REJECT_BINS + 2`` entries: bin ``k`` covers
        ``[k, k + 1)·max_d2 / REJECT_BINS`` and the last one everything
        beyond.  ``−1`` rejects the whole bin, ``2⁵³`` keeps it.
        """
        k = np.arange(REJECT_BINS + 2, dtype=float)
        near = np.sqrt(k * (self.max_d2 / REJECT_BINS) * (1.0 - 1e-12))
        loss = np.asarray(self.pathloss.loss_db(near), dtype=float)
        need = loss - (self.tx_power_dbm - self.floor_dbm) - _SLACK_DB
        gain = float(self.shadowing.max_gain_db)
        thr = np.where(need > gain, -1, _KEEP_ALL)
        if self._hashed:
            # R ≥ ρ ⇔ u₁ ≤ exp(−ρ²/2); widen by 10⁻⁹ and one extra step
            rho = np.maximum(need, 0.0) / self.shadowing.sigma_db
            u_max = np.exp(-0.5 * rho * rho) * (1.0 + 1e-9)
            bits = np.minimum(np.floor(u_max * 2.0**53) + 1.0, _KEEP_ALL)
            thr = np.where((need > 0) & (need <= gain), bits, thr)
        return thr.astype(np.int64)

    def may_reach(
        self, d2: np.ndarray, code: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """The early test: ``False`` only where the mean power is provably
        below the floor.

        ``d2`` are squared distances and ``code`` the pairs'
        :func:`~repro.radio.chanhash.pair_code` (needed with hashed
        shadowing, ignored otherwise).  Returns the mask and the pairs'
        ``u₁`` hash bits (``None`` without hashed shadowing).
        """
        b = d2 * self._bin_scale
        np.minimum(b, float(REJECT_BINS + 1), out=b)
        thr = self._thresholds[b.astype(np.intp)]
        if not self._hashed:
            return thr >= 0, None
        bits = self.shadowing.u1_bits(code)
        return bits.view(np.int64) <= thr, bits

    def links(
        self,
        positions: np.ndarray,
        ids: np.ndarray | None = None,
        *,
        split: int | None = None,
        count_candidates: bool = False,
        max_chunk_pairs: int = DEFAULT_CHUNK_PAIRS,
    ) -> tuple[int, np.ndarray, np.ndarray, np.ndarray]:
        """Every pair within ``max_d2`` whose mean power reaches the floor.

        ``ids`` names the devices (default ``0..n−1``); they key the
        shadowing and label the output.  With ``split``, only the pairs
        of one of the first ``split`` devices and one of the rest are
        considered (bipartite slices of :func:`~repro.radio.spatial.
        pair_slices`).  Returns ``(candidates, lo, hi, power_dbm)``: the
        number of considered pairs within ``max_d2`` (0 unless
        ``count_candidates``) and one entry per link with ``lo < hi`` —
        in block order, not sorted.

        The exact distance filter runs on the early test's survivors:
        hashing a whole slice and compressing once measured faster than
        compressing to the in-range pairs first and hashing those.
        """
        positions = np.asarray(positions, dtype=float)
        n = positions.shape[0]
        ids = np.arange(n, dtype=np.int64) if ids is None else np.asarray(
            ids, dtype=np.int64
        )
        candidates = 0
        out_lo: list[np.ndarray] = []
        out_hi: list[np.ndarray] = []
        out_p: list[np.ndarray] = []
        for rows, cols, d2, valid in pair_slices(
            positions, self.radius_m, split=split,
            max_chunk_pairs=max_chunk_pairs,
        ):
            if count_candidates:
                near = d2 <= self.max_d2
                if valid is not None:
                    near &= valid
                candidates += int(np.count_nonzero(near))
            code = (
                pair_code(ids[rows][:, None], ids[cols][None, :])
                if self._hashed
                else None
            )
            keep, bits = self.may_reach(d2, code)
            if valid is not None:
                keep &= valid
            sel = np.flatnonzero(keep)
            d2s = d2.ravel()[sel]
            near = d2s <= self.max_d2
            sel, d2s = sel[near], d2s[near]
            if sel.size == 0:
                continue
            if code is not None:
                code_s = code.ravel()[sel]
                lo = (code_s >> np.uint64(32)).astype(np.int64)
                hi = (code_s & _MASK32).astype(np.int64)
                shadow = self.shadowing.bits_db(code_s, bits.ravel()[sel])
            else:
                r, c = np.divmod(sel, cols.size)
                a, b = ids[rows[r]], ids[cols[c]]
                lo, hi = np.minimum(a, b), np.maximum(a, b)
                shadow = self.shadowing.link_db(lo, hi)
            loss = np.asarray(self.pathloss.loss_db(np.sqrt(d2s)), dtype=float)
            power = self.tx_power_dbm - loss - shadow
            ok = power >= self.floor_dbm
            out_lo.append(lo[ok])
            out_hi.append(hi[ok])
            out_p.append(power[ok])
        if not out_lo:
            empty = np.empty(0, dtype=np.int64)
            return candidates, empty, empty.copy(), np.empty(0, dtype=float)
        return (
            candidates,
            np.concatenate(out_lo),
            np.concatenate(out_hi),
            np.concatenate(out_p),
        )
