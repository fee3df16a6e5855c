"""Moments of the linear functional with weight exp(-z*x^4) on (0, inf).

The n-th moment has the closed form z^(-(n+1)/4) * Gamma((n+1)/4) / 4, obeys
the four-step recurrence 4z*mu_{n+4} = (n+1)*mu_n, and scales in z as
mu_n(z) = z^(-(n+1)/4) * mu_n(1).  The functional is semiclassical: it
satisfies a Pearson equation with phi(x) = x and psi(x) = 4z*x^4 - 1, and the
class test at the single root c = 0 of phi yields class 3.  The (formal)
Stieltjes series S(t) = sum mu_n / t^(n+1) satisfies a first-order linear ODE
whose truncation residual telescopes to an explicit four-term tail.
"""
from __future__ import annotations

from dataclasses import dataclass

import mpmath as mp

from .kernel import RESIDUAL_GUARD_BITS, DomainError, PrecisionContext


def moment(n: int, z, ctx: PrecisionContext) -> mp.mpf:
    """mu_n(z) = z^(-(n+1)/4) * Gamma((n+1)/4) / 4 for n >= 0, z > 0."""
    if n < 0:
        raise DomainError(f"moment index must be >= 0, got {n}")
    with ctx.workprec(16):
        zv = mp.mpf(z)
        if not zv > 0:
            raise DomainError(f"z must be positive, got {z}")
        e = mp.mpf(n + 1) / 4
        val = zv ** (-e) * mp.gamma(e) / 4
    return ctx.round(val)


@dataclass(frozen=True)
class MomentSequence:
    """mu_0..mu_N at a fixed z, generated from the closed form at the
    precision of `ctx`."""

    z: mp.mpf
    values: tuple
    ctx: PrecisionContext

    @classmethod
    def build(cls, z, N: int, ctx: PrecisionContext) -> "MomentSequence":
        if N < 0:
            raise DomainError(f"N must be >= 0, got {N}")
        with ctx.workprec(16):
            zv = +mp.mpf(z)
        return cls(zv, tuple(moment(n, zv, ctx) for n in range(N + 1)), ctx)

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, n: int) -> mp.mpf:
        return self.values[n]


def moment_recurrence_residual(mseq: MomentSequence, n: int) -> tuple:
    """4z*mu_{n+4} - (n+1)*mu_n, zero in exact arithmetic, and its scale
    (n+1)*mu_n."""
    if n < 0 or n + 4 >= len(mseq.values):
        raise IndexError(f"need indices n={n} and n+4 inside 0..{len(mseq.values) - 1}")
    with mseq.ctx.workprec(RESIDUAL_GUARD_BITS):
        rhs = (n + 1) * mseq.values[n]
        return 4 * mseq.z * mseq.values[n + 4] - rhs, rhs


@dataclass(frozen=True)
class PearsonData:
    """D(phi u) + psi u = 0 data: phi = x, psi = 4z*x^4 - 1 (ascending coeffs)."""

    phi: tuple
    psi: tuple
    class_: int


def pearson_product(z, ctx: PrecisionContext) -> mp.mpf:
    """Class-reduction test at the root c = 0 of phi.

    The criterion value is |psi(0) + phi'(0)| + |<u, theta_0 psi + theta_0^2 phi>|.
    The first term is |-1 + 1| = 0 and the bracket reduces to 4z*x^3, so the
    pairing is 4z*mu_3(z) = 1 identically.
    """
    with ctx.workprec(16):
        zv = mp.mpf(z)
        if not zv > 0:
            raise DomainError(f"z must be positive, got {z}")
        first = abs(mp.mpf(-1) + 1)
        second = abs(4 * zv * moment(3, zv, ctx))
        val = first + second
    return ctx.round(val)


def pearson_data(z, ctx: PrecisionContext) -> PearsonData:
    with ctx.workprec(16):
        zv = +mp.mpf(z)
        psi = (mp.mpf(-1), mp.mpf(0), mp.mpf(0), mp.mpf(0), 4 * zv)
    phi = (mp.mpf(0), mp.mpf(1))
    # class reduces below max(deg phi - 2, deg psi - 1) only if the product
    # over roots of phi vanishes; here it is 1, so no reduction
    cls = max(len(phi) - 1 - 2, len(psi) - 1 - 1) if pearson_product(zv, ctx) > 0 else -1
    return PearsonData(phi, psi, cls)


def stieltjes_partial(t, z, N: int, ctx: PrecisionContext) -> mp.mpf:
    """Partial sum sum_{n=0}^{N} mu_n(z) / t^(n+1)."""
    if N < 0:
        raise DomainError(f"N must be >= 0, got {N}")
    with ctx.workprec(32):
        tv = mp.mpf(t)
        if tv == 0:
            raise DomainError("t must be nonzero")
        zv = mp.mpf(z)
        inv = 1 / tv
        s = mp.mpf(0)
        p = inv
        for n in range(N + 1):
            s += moment(n, zv, ctx) * p
            p *= inv
    return ctx.round(s)


def stieltjes_ode_residual(t, z, N: int, ctx: PrecisionContext) -> mp.mpf:
    """t*S_N' + 4z*t^4*S_N - 4z*(mu_3 + mu_2 t + mu_1 t^2 + mu_0 t^3),

    with S_N the degree-N partial sum and S_N' its exact termwise derivative.
    """
    if N < 3:
        raise DomainError(f"N must be >= 3, got {N}")
    with ctx.workprec(32):
        tv = mp.mpf(t)
        if tv == 0:
            raise DomainError("t must be nonzero")
        zv = mp.mpf(z)
        mu = [moment(n, zv, ctx) for n in range(N + 1)]
        inv = 1 / tv
        tds = mp.mpf(0)   # t * dS/dt = -sum (n+1) mu_n t^(-n-1)
        s = mp.mpf(0)
        p = inv
        for n in range(N + 1):
            s += mu[n] * p
            tds -= (n + 1) * mu[n] * p
            p *= inv
        rhs = 4 * zv * (mu[3] + mu[2] * tv + mu[1] * tv ** 2 + mu[0] * tv ** 3)
        val = tds + 4 * zv * tv ** 4 * s - rhs
    return ctx.round(val)


def stieltjes_tail(t, z, N: int, ctx: PrecisionContext) -> mp.mpf:
    """-sum_{n=N-3}^{N} (n+1) mu_n t^(-n-1): the exact value the ODE residual
    telescopes to (every interior term cancels through the moment recurrence)."""
    if N < 3:
        raise DomainError(f"N must be >= 3, got {N}")
    with ctx.workprec(32):
        tv = mp.mpf(t)
        if tv == 0:
            raise DomainError("t must be nonzero")
        zv = mp.mpf(z)
        val = -mp.fsum((n + 1) * moment(n, zv, ctx) * tv ** (-n - 1)
                       for n in range(N - 3, N + 1))
    return ctx.round(val)
