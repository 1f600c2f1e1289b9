"""Decreasing step-size schedules gamma_n = c / n**alpha and their validity checks.

A schedule is admissible when c > 0 and 1/2 < alpha <= 1, which guarantees
sum(gamma_n) diverges while sum(gamma_n**2) converges.  The rate-condition
report captures the extra inequalities on (c, alpha, mu, p) under which the
second-moment and 2p-th-moment convergence rates are guaranteed.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class StepSchedule:
    """Step sequence gamma_n = c / n**alpha, indexed from n = 1.

    Attributes:
        c: positive step scale; gamma(1) == c.
        alpha: decay exponent in (1/2, 1].
    """

    c: float
    alpha: float

    def __post_init__(self):
        if not (self.c > 0):
            raise ValueError(f"c must be positive, got {self.c}")
        if not (self.alpha > 0.5):
            raise ValueError(f"alpha must exceed 1/2, got {self.alpha}")
        if self.alpha > 1:
            raise ValueError(
                f"alpha must not exceed 1 (got {self.alpha}); "
                "exponents above 1 make the step sequence summable and are unsupported"
            )

    def gamma(self, n: int) -> float:
        """Step used in the update from iterate n to iterate n + 1 (n >= 1)."""
        if n < 1:
            raise ValueError(f"step index must be >= 1, got {n}")
        return self.c / n**self.alpha

    def gammas(self, n_first: int, n_last: int):
        """Vector of steps gamma(n) for n = n_first..n_last inclusive.

        Evaluates the scalar definition pointwise so the entries are bitwise
        identical to gamma(n); numpy's vectorized power can differ by an ulp.
        """
        import numpy as np

        if n_first < 1 or n_last < n_first:
            raise ValueError(f"invalid step range [{n_first}, {n_last}]")
        return np.array([self.c / n**self.alpha for n in range(n_first, n_last + 1)])


@dataclass(frozen=True)
class RateConditionReport:
    """Result of checking the moment-rate hypotheses for a schedule.

    ``l2_rate_ok`` holds exactly when 2*c*mu <= 2**alpha, with additionally
    2*c*mu > 1 when alpha == 1 (the second-moment rate condition).
    ``l2p_rate_ok`` holds exactly when p*c*mu <= 2**alpha, with additionally
    c*mu > 1 when alpha == 1 (the 2p-th-moment rate condition).
    Comparisons are exact floating-point comparisons with no tolerance band.
    """

    c: float
    alpha: float
    mu: float
    p: int
    l2_rate_ok: bool
    l2p_rate_ok: bool
    messages: tuple[str, ...] = field(default_factory=tuple)

    def to_dict(self) -> dict:
        return {
            "c": self.c,
            "alpha": self.alpha,
            "mu": self.mu,
            "p": self.p,
            "l2_rate_ok": self.l2_rate_ok,
            "l2p_rate_ok": self.l2p_rate_ok,
            "messages": list(self.messages),
        }


def validate_rate_conditions(
    schedule: StepSchedule, mu: float, p: int
) -> RateConditionReport:
    """Check the rate-guarantee inequalities for (schedule, mu, p).

    ``mu`` is the restricted-secant constant supplied by the caller; it is
    treated as an input, never estimated here.  The function is pure.
    """
    if not (mu > 0):
        raise ValueError(f"mu must be positive, got {mu}")
    if p < 1:
        raise ValueError(f"p must be a positive integer, got {p}")

    c, alpha = schedule.c, schedule.alpha
    cap = 2.0**alpha
    messages = []

    l2_ok = True
    if not (2.0 * c * mu <= cap):
        l2_ok = False
        messages.append(
            f"second-moment rate needs 2*c*mu <= 2**alpha: {2.0 * c * mu} > {cap}"
        )
    if alpha == 1.0 and not (2.0 * c * mu > 1.0):
        l2_ok = False
        messages.append(
            f"second-moment rate with alpha = 1 needs 2*c*mu > 1: got {2.0 * c * mu}"
        )

    l2p_ok = True
    if not (p * c * mu <= cap):
        l2p_ok = False
        messages.append(
            f"order-2p moment rate needs p*c*mu <= 2**alpha: {p * c * mu} > {cap}"
        )
    if alpha == 1.0 and not (c * mu > 1.0):
        l2p_ok = False
        messages.append(
            f"order-2p moment rate with alpha = 1 needs c*mu > 1: got {c * mu}"
        )

    return RateConditionReport(
        c=c,
        alpha=alpha,
        mu=mu,
        p=p,
        l2_rate_ok=l2_ok,
        l2p_rate_ok=l2p_ok,
        messages=tuple(messages),
    )
