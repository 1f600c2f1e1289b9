"""Deterministic inequality oracles used as property-test backstops.

Two families live here:

* the norm-power expansion bound
  ||a + b||^(2+p) <= ||a||^(2+p) + (2+p) <a,b> ||a||^p
                     + C_p ||a||^p ||b||^2 + D_p ||b||^(2+p)
  for even p, whose constants follow the two-term recursion implemented by
  :func:`cp_dp`;

* the scalar recursion Z_{n+1} <= (1 - a/(n+1)^alpha) Z_n + b/(n+1)^beta,
  whose solutions satisfy Z_n <= C / n^(beta - alpha).  The bound is probed
  empirically by iterating the recursion at equality (the worst case) and
  checking that the running maximum of Z_n * n^(beta - alpha) plateaus.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np


@dataclass(frozen=True)
class NormPowerConstants:
    """Constants (C_p, D_p) of the norm-power bound for one even order p."""

    p: int
    c_p: float
    d_p: float


def cp_dp(p: int) -> NormPowerConstants:
    """Constants for even order p from the recursion

        C_p = 3p + (4/p) ((p-1) C_{p-2} + D_{p-2})
        D_p = 1 + (4/p) (C_{p-2} + (p-1) D_{p-2})

    with C_2 = 8 and D_2 = 3.  Values grow quickly with p; they are exercised
    up to p = 12.
    """
    if p < 2 or p % 2 != 0:
        raise ValueError(f"p must be a positive even integer >= 2, got {p}")
    c, d = 8.0, 3.0
    for q in range(4, p + 1, 2):
        c, d = (
            3.0 * q + (4.0 / q) * ((q - 1) * c + d),
            1.0 + (4.0 / q) * (c + (q - 1) * d),
        )
    return NormPowerConstants(p=p, c_p=c, d_p=d)


def check_norm_power_inequality(a: np.ndarray, b: np.ndarray, p: int):
    """Evaluate both sides of the norm-power bound at (a, b).

    ``a`` and ``b`` are vectors of shape (d,), or stacks of B pairs of shape
    (B, d).  Returns ``(holds, slack)`` with slack = RHS - LHS, a bool and a
    float for one pair or two (B,) arrays for a stack; ``holds`` absorbs
    round-off by allowing slack >= -1e-9 * max(1, RHS).
    """
    consts = cp_dp(p)
    single = np.ndim(a) == 1
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    na = np.linalg.norm(a, axis=1)
    nb = np.linalg.norm(b, axis=1)
    inner = np.einsum("ij,ij->i", a, b)
    lhs = np.linalg.norm(a + b, axis=1) ** (2 + p)
    rhs = (
        na ** (2 + p)
        + (2 + p) * inner * na**p
        + consts.c_p * na**p * nb**2
        + consts.d_p * nb ** (2 + p)
    )
    slack = rhs - lhs
    holds = slack >= -1e-9 * np.maximum(1.0, rhs)
    if single:
        return bool(holds[0]), float(slack[0])
    return holds, slack


@dataclass(frozen=True)
class RecursionTrace:
    """Worst-case trajectory of the step recursion and its scaled supremum.

    ``plateaued`` reports whether the running maximum of
    Z_n * n^(beta - alpha) grew by at most 1% (relative) over the final half
    of the iterations, the empirical signature of the C / n^(beta - alpha)
    bound.
    """

    a: float
    b: float
    alpha: float
    beta: float
    z: np.ndarray
    sup_scaled: float
    plateaued: bool
    plateau_increase: float

    def to_dict(self) -> dict:
        record = asdict(self)
        record["n_max"] = len(record.pop("z"))
        return record


def _check_recursion_params(a, b, alpha, beta):
    problems = []
    if not (a > 0 and b >= 0 and alpha > 0 and beta > 0):
        problems.append("a, alpha, beta must be positive and b nonnegative")
    if not (a <= 2**alpha):
        problems.append(f"a <= 2**alpha violated: {a} > {2**alpha}")
    if not (alpha <= 1):
        problems.append(f"alpha <= 1 violated: {alpha}")
    if not (1 < beta < 2):
        problems.append(f"1 < beta < 2 violated: beta = {beta}")
    if not (beta <= 2 * alpha):
        problems.append(f"beta <= 2*alpha violated: {beta} > {2 * alpha}")
    if alpha == 1 and not (beta < a + 1):
        problems.append(f"beta < a + 1 (required when alpha = 1) violated: {beta} >= {a + 1}")
    if problems:
        raise ValueError("; ".join(problems))


def recursion_bound_trace(
    a: float,
    b: float,
    alpha: float,
    beta: float,
    z1: float,
    n_max: int,
) -> RecursionTrace:
    """Iterate Z_{n+1} = (1 - a/(n+1)^alpha) Z_n + b/(n+1)^beta from Z_1 = z1.

    Parameters must satisfy the admissibility constraints (each violation is
    named in the rejection message).  The trajectory is linear in (z1, b)
    jointly, so doubling both doubles every Z_n exactly.
    """
    _check_recursion_params(a, b, alpha, beta)
    if z1 < 0:
        raise ValueError("z1 must be nonnegative")
    if n_max < 2:
        raise ValueError("n_max must be at least 2")

    ns = np.arange(2.0, n_max + 1.0)
    decay = 1.0 - a / ns**alpha
    forcing = b / ns**beta
    z = np.empty(n_max)
    z[0] = z1
    current = z1
    for i in range(n_max - 1):
        current = decay[i] * current + forcing[i]
        z[i + 1] = current

    scaled = z * np.arange(1.0, n_max + 1.0) ** (beta - alpha)
    running_max = np.maximum.accumulate(scaled)
    sup_scaled = float(running_max[-1])
    half = n_max // 2
    base = float(running_max[half - 1])
    increase = (sup_scaled - base) / base if base > 0 else 0.0
    return RecursionTrace(
        a=a,
        b=b,
        alpha=alpha,
        beta=beta,
        z=z,
        sup_scaled=sup_scaled,
        plateaued=bool(increase <= 0.01),
        plateau_increase=float(increase),
    )
