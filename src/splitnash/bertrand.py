"""Extended Bertrand duopoly price competition with quality-weighted demand splits.

Two firms with unit costs c1 <= c2 name prices; the whole market goes to the
firm whose price wins the threshold comparison p1 vs lambda*p2 with
lambda = c1/c2, and splits in cost proportion on the tie line. Profit
functions are discontinuous on the tie line, so all equilibrium machinery
here is grid enumeration with the exact tie price injected into every
best-response grid; gradient methods are invalid for this model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

TIE_TOL = 1e-12


def linear_demand(d0: float = 10.0, a: float = 1.0, b: float = 1.0) -> Callable:
    """Truncated linear demand max(0, d0 - a*p1 - b*p2); numpy-broadcastable."""

    def demand(p1, p2):
        return np.maximum(0.0, d0 - a * p1 - b * p2)

    demand.caps = (d0 / a, d0 / b)  # price caps where own demand vanishes
    return demand


@dataclass(frozen=True)
class BertrandModel:
    """Costs, quality ratio, and demand for the duopoly."""

    c1: float
    c2: float
    demand: Callable = field(default_factory=linear_demand)

    def __post_init__(self) -> None:
        if not (0 < self.c1 <= self.c2):
            raise ValueError(f"need 0 < c1 <= c2, got c1={self.c1}, c2={self.c2}")
        d = float(self.demand(self.c1, self.c2))
        if not (0 < d < math.inf):
            raise ValueError(f"demand at costs must be positive and finite, got {d}")

    @property
    def lam(self) -> float:
        """Quality ratio c1/c2, in (0, 1]."""
        return self.c1 / self.c2

    def default_price_range(self) -> float:
        """The smaller of 5 * c2 and the price caps of the demand (demand.caps), if any."""
        return min([*map(float, getattr(self.demand, "caps", ())), 5.0 * self.c2])


def _shares_and_profits(model: BertrandModel, p1, p2) -> tuple[np.ndarray, ...]:
    """Demand, both sales shares, and both profits at broadcast prices (p1, p2).

    The one place that applies the tie tolerance, the cost-proportional tie
    split, and the zero-demand mask: at zero demand both shares and both
    profits are zero.
    """
    p1 = np.asarray(p1, dtype=float)
    p2 = np.asarray(p2, dtype=float)
    # on the inputs before broadcasting: O(G) per block of the enumeration
    if not all(np.all((p >= 0) & (p < math.inf)) for p in (p1, p2)):
        raise ValueError("prices must be finite and nonnegative")
    c1, c2 = model.c1, model.c2
    d = np.asarray(model.demand(p1, p2), dtype=float)
    pos = d > 0.0
    # the mask passes are needed only where some demand is zero (or NaN)
    masked = not pos.all()
    diff = p1 - model.lam * p2
    # np.array, not astype: scalar prices must still give assignable arrays
    s1 = np.array(pos & (diff < 0) if masked else diff < 0, dtype=float)
    s2 = np.array(pos & (diff > 0) if masked else diff > 0, dtype=float)
    on_tie = np.abs(diff) <= TIE_TOL
    del diff
    if on_tie.any():
        if masked:
            on_tie = pos & on_tie
        s1[on_tie] = c1 / (c1 + c2)
        s2[on_tie] = c2 / (c1 + c2)
    # ((p - c) * s) * d in that order fixes every bit, sign of zero included;
    # asarray keeps the product of scalar prices a 0-d array, like the shares
    u1 = np.asarray((p1 - c1) * s1)
    u1 *= d
    u2 = np.asarray((p2 - c2) * s2)
    u2 *= d
    if masked:
        u1 = np.where(pos, u1, 0.0)
        u2 = np.where(pos, u2, 0.0)
    return d, s1, s2, u1, u2


def profits(model: BertrandModel, p1: float, p2: float) -> tuple[float, float]:
    """Per-firm profit (p_j - c_j) * share_j * demand."""
    u1, u2 = _shares_and_profits(model, p1, p2)[3:]
    return (float(u1), float(u2))


def tie_price(model: BertrandModel, firm: int, opponent_price: float) -> float:
    """The exact price putting the given firm on the demand-split tie line;
    elementwise for an array of opponent prices."""
    if firm == 1:
        return model.lam * opponent_price
    return opponent_price / model.lam


def grid_best_response(
    model: BertrandModel, firm: int, opponent_price: float | np.ndarray, grid: Sequence[float]
) -> tuple[float, float] | tuple[np.ndarray, np.ndarray]:
    """Exhaustive profit maximization over the grid plus the exact tie price;
    elementwise for an array of opponent prices.

    The tie line carries the only positive-profit region near equilibrium and
    would otherwise be missed. Ties in profit break toward the lower price.
    Opponents go in blocks of rows, each the grid plus its own tie price, so
    memory is O(G) in the G grid prices.
    """
    if firm not in (1, 2):
        raise ValueError("firm must be 1 or 2")
    if len(grid) == 0:
        raise ValueError("grid must be nonempty")
    g = np.asarray(grid, dtype=float)
    opp = np.asarray(opponent_price, dtype=float)
    flat = opp.ravel()
    price, best = np.empty_like(flat), np.empty_like(flat)
    for r in range(0, len(flat), _ROW_BLOCK):
        o = flat[r : r + _ROW_BLOCK, None]
        cands = np.concatenate([np.broadcast_to(g, (len(o), len(g))), tie_price(model, firm, o)], 1)
        u = _shares_and_profits(model, *((cands, o) if firm == 1 else (o, cands)))[2 + firm]
        # the lowest price among the maxima, whose own profit keeps the sign of zero
        k = np.where(u == u.max(axis=1, keepdims=True), cands, math.inf).argmin(axis=1)
        rows = np.arange(len(o))
        price[r : r + _ROW_BLOCK], best[r : r + _ROW_BLOCK] = cands[rows, k], u[rows, k]
    if opp.ndim == 0:
        return float(price[0]), float(best[0])
    return price.reshape(opp.shape), best.reshape(opp.shape)


def _price_grid(hi: float, step: float) -> np.ndarray:
    # written so that NaN fails too
    if not 0 < step < math.inf:
        raise ValueError(f"grid_step must be finite and positive, got {step}")
    if not step <= hi < math.inf:
        raise ValueError(f"price range must be finite and at least grid_step, got {hi}")
    # the last price is at most hi; the slack keeps a dividing step's last cell
    cells = math.floor(hi / step + 1e-9)
    # snap to exact decimals so tie detection on grid pairs is exact
    return np.round(np.arange(cells + 1) * step, 9)


# rows of the price grid, or opponent prices, evaluated at once; keeps memory O(G)
_ROW_BLOCK = 32


def enumerate_grid_equilibria(
    model: BertrandModel,
    grid_step: float,
    price_range: float | None = None,
    tolerance: float = 1e-6,
) -> list[tuple[float, float]]:
    """All grid points where no tie-augmented grid deviation improves either
    firm's profit by more than tolerance.

    Profits are evaluated once, in blocks of rows (firm 1's price) against
    every column (firm 2's price). A block gives its rows' exact best profits
    for firm 2 and raises the running best profits of firm 1 per column. It
    keeps the cells within tolerance of both; a running best never exceeds
    the final one, so no equilibrium is dropped. The kept cells are then
    filtered against firm 1's final best profits. Memory is O(G) in the G
    grid prices plus the kept cells; the result lists the equilibria in
    row-major order.
    """
    hi = price_range if price_range is not None else model.default_price_range()
    g = _price_grid(hi, grid_step)
    # firm 1 tie candidate per opponent price, firm 2 tie candidate per own row
    best1 = _shares_and_profits(model, tie_price(model, 1, g), g)[3]  # per column (opponent p2)
    tie2 = _shares_and_profits(model, g, tie_price(model, 2, g))[4]  # per row (opponent p1)
    kept_i, kept_j, kept_u1 = [], [], []
    for r in range(0, len(g), _ROW_BLOCK):
        rows = slice(r, r + _ROW_BLOCK)
        # [3:] rather than star-unpacking, so demand and shares are freed here
        u1, u2 = _shares_and_profits(model, g[rows, None], g[None, :])[3:]
        # max is exact, so the blocked maxima equal those of the whole matrices
        np.maximum(best1, u1.max(axis=0), out=best1)
        best2 = np.maximum(u2.max(axis=1), tie2[rows])
        mask = (u1 >= best1 - tolerance) & (u2 >= (best2 - tolerance)[:, None])
        if mask.any():
            ii, jj = np.nonzero(mask)
            kept_i.append(ii + r)
            kept_j.append(jj)
            kept_u1.append(u1[ii, jj])
    if not kept_i:
        return []
    ii, jj = np.concatenate(kept_i), np.concatenate(kept_j)
    keep = np.concatenate(kept_u1) >= (best1 - tolerance)[jj]
    return list(zip(g[ii[keep]].tolist(), g[jj[keep]].tolist()))


@dataclass(frozen=True)
class MarkovPriceMatrix:
    """The 2x2 column-stochastic price modification [[a, 1-b], [1-a, b]]."""

    alpha: float
    beta: float

    def __post_init__(self) -> None:
        if not (0 <= self.alpha <= 1 and 0 <= self.beta <= 1):
            raise ValueError("alpha and beta must lie in [0, 1]")

    @property
    def is_identity(self) -> bool:
        return self.alpha == 1.0 and self.beta == 1.0


def markov_price_transform(
    m: MarkovPriceMatrix, p1: float, p2: float
) -> tuple[float, float]:
    """Apply the price modification; preserves p1 + p2 (columns sum to 1)."""
    return (m.alpha * p1 + (1 - m.beta) * p2, (1 - m.alpha) * p1 + m.beta * p2)


def is_grid_equilibrium(
    model: BertrandModel,
    p1: float | np.ndarray,
    p2: float | np.ndarray,
    grid_step: float = 1e-2,
    price_range: float | None = None,
    tolerance: float = 1e-6,
) -> bool | np.ndarray:
    """No tie-augmented grid deviation improves either firm beyond tolerance;
    elementwise over broadcast price arrays (a bool for scalar prices)."""
    hi = price_range if price_range is not None else model.default_price_range()
    g = _price_grid(hi, grid_step)
    cur1, cur2 = _shares_and_profits(model, p1, p2)[3:]
    ok = grid_best_response(model, 1, p2, g)[1] <= cur1 + tolerance
    ok &= grid_best_response(model, 2, p1, g)[1] <= cur2 + tolerance
    return bool(ok) if ok.ndim == 0 else ok


@dataclass(frozen=True)
class MarkovAuditRow:
    alpha: float
    beta: float
    transformed: tuple[float, float]
    verdict: bool
    oracle: bool
    stated_claim: bool

    @property
    def agrees_with_oracle(self) -> bool:
        return self.verdict == self.oracle

    @property
    def agrees_with_claim(self) -> bool:
        return self.verdict == self.stated_claim


@dataclass(frozen=True)
class MarkovAuditReport:
    rows: tuple[MarkovAuditRow, ...]

    @property
    def all_match_oracle(self) -> bool:
        return all(r.agrees_with_oracle for r in self.rows)

    @property
    def claim_discrepancies(self) -> tuple[MarkovAuditRow, ...]:
        return tuple(r for r in self.rows if not r.agrees_with_claim)


def audit_theorem_6_2(
    model: BertrandModel,
    alphas_betas: Sequence[tuple[float, float]],
    grid_step: float = 1e-2,
    price_range: float | None = None,
    tolerance: float = 1e-6,
) -> MarkovAuditReport:
    """Audit the Markov split claims for the repeated duopoly.

    For each sampled (alpha, beta) the transformed cost pair is tested for
    grid equilibrium and compared against two predictions: the analytic
    oracle "transform fixes (c1, c2)" and the literal source claims (with
    equal costs, every matrix works; with unequal costs, only the identity).
    Disagreements are tabulated, never overridden.
    """
    # numpy scalars would make the comparisons below numpy booleans
    matrices = [MarkovPriceMatrix(float(a), float(b)) for a, b in alphas_betas]
    tps = [markov_price_transform(m, model.c1, model.c2) for m in matrices]
    # one test of every pair, which checks the grid even when there are none
    verdicts = is_grid_equilibrium(
        model, [tp[0] for tp in tps], [tp[1] for tp in tps], grid_step=grid_step,
        price_range=price_range, tolerance=tolerance,
    ).tolist()
    rows = tuple(
        MarkovAuditRow(
            m.alpha, m.beta, (float(tp[0]), float(tp[1])), verdict,
            oracle=abs(tp[0] - model.c1) <= 1e-9 and abs(tp[1] - model.c2) <= 1e-9,
            stated_claim=model.c1 == model.c2 or m.is_identity,
        )
        for m, tp, verdict in zip(matrices, tps, verdicts)
    )
    return MarkovAuditReport(rows=rows)
