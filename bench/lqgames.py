"""Seeded linear-quadratic games with a known unique Nash equilibrium.

Player i chooses x_i in [0, hi] and earns

    u_i(x) = x_i * (a_i + sum_{j != i} b_ij x_j) - c_i x_i^2,

which is strictly concave in x_i. The interior first-order conditions form
the linear system (2C - B) x = a; the coupling is kept small enough
(|b_ij| <= 0.3 c_i) that the best-response map is a contraction, so the
solution x* of that system is the unique equilibrium. The utilities are
emitted as expression strings, so the program under test only ever sees
generated text.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# strategy-set width -> (upper bound of every player's interval, scale of x*)
WIDTHS = {
    "narrow": (10.0, 10.0),
    "wide": (1000.0, 1000.0),
    "unbounded": (math.inf, 1000.0),
}


def _coef(v: float) -> str:
    return repr(float(v))


@dataclass(frozen=True)
class LQGame:
    label: str
    hi: float
    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    x_star: np.ndarray
    sources: tuple[str, ...]

    @property
    def n(self) -> int:
        return len(self.a)

    @property
    def players(self) -> tuple[str, ...]:
        return tuple(f"p{i + 1}" for i in range(self.n))

    @property
    def variables(self) -> tuple[str, ...]:
        return tuple(f"x{i + 1}" for i in range(self.n))

    def regrets(self, x) -> np.ndarray:
        """Exact per-player regret at x: best own value minus current value."""
        x = np.asarray(x, dtype=float)
        out = np.empty(self.n)
        for i in range(self.n):
            k = self.a[i] + sum(self.b[i, j] * x[j] for j in range(self.n) if j != i)
            best = min(max(k / (2.0 * self.c[i]), 0.0), self.hi)
            out[i] = (best * k - self.c[i] * best**2) - (x[i] * k - self.c[i] * x[i] ** 2)
        return out


def make_lq_game(rng: np.random.Generator, n: int, width: str) -> LQGame:
    hi, scale = WIDTHS[width]
    c = rng.uniform(0.5, 2.0, n)
    b = rng.uniform(-0.3, 0.3, (n, n)) * c[:, None]
    np.fill_diagonal(b, 0.0)
    target = rng.uniform(0.2, 0.8, n) * scale
    a = (2.0 * np.diag(c) - b) @ target
    x_star = np.linalg.solve(2.0 * np.diag(c) - b, a)
    names = [f"x{i + 1}" for i in range(n)]
    sources = []
    for i in range(n):
        linear = _coef(a[i])
        for j in range(n):
            if j != i:
                sign = "-" if b[i, j] < 0 else "+"
                linear += f" {sign} {_coef(abs(b[i, j]))}*{names[j]}"
        sources.append(f"{names[i]}*({linear}) - {_coef(c[i])}*{names[i]}^2")
    return LQGame(f"lq{n}-{width}", hi, a, b, c, x_star, tuple(sources))
