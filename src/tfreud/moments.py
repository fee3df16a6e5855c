"""Moments of the linear functional with weight exp(-z*x^4) on (0, inf).

The n-th moment has the closed form z^(-(n+1)/4) * Gamma((n+1)/4) / 4, obeys
the four-step recurrence 4z*mu_{n+4} = (n+1)*mu_n, and scales in z as
mu_n(z) = z^(-(n+1)/4) * mu_n(1).  The functional is semiclassical: it
satisfies a Pearson equation with phi(x) = x and psi(x) = 4z*x^4 - 1, and the
class test at the single root c = 0 of phi yields class 3.  The (formal)
Stieltjes series S(t) = sum mu_n / t^(n+1) satisfies a first-order linear ODE
whose truncation residual telescopes to an explicit four-term tail.

Two routes give the same context-rounded moments:

* `moment(n, z, ctx)` evaluates the closed form through mp.gamma.  It is the
  reference.  MomentSequence holds the same bits, evaluating each
  Gamma((n+1)/4) once for all the z of a build_many; verify's
  moment-recurrence, stieltjes-ode-tail and scaling-moments records read
  it, as they must not check the recurrence against itself.
  pearson_product and lf_forward's h_0 read moment().
* `moment_sequence(z, N, ctx)` seeds mu_0..mu_3 from one AGM and runs the
  four-step recurrence, with no Gamma evaluation.  chebyshev_coeffs and
  `tfreud moments` read it: at a few thousand bits mpmath's Gamma set-up
  alone costs seconds.
"""
from __future__ import annotations

from dataclasses import dataclass

import mpmath as mp

from .kernel import RESIDUAL_GUARD_BITS, DomainError, PrecisionContext, positive_finite


def _gamma_quarter(n: int) -> mp.mpf:
    """Gamma((n+1)/4) at the caller's precision: the factor of mu_n that does
    not depend on z."""
    return mp.gamma(mp.mpf(n + 1) / 4)


def _closed_form(n: int, zv, gamma) -> mp.mpf:
    """z^(-(n+1)/4) * gamma / 4, gamma = Gamma((n+1)/4), at the caller's
    precision."""
    return zv ** (-(mp.mpf(n + 1) / 4)) * gamma / 4


def moment(n: int, z, ctx: PrecisionContext) -> mp.mpf:
    """mu_n(z) = z^(-(n+1)/4) * Gamma((n+1)/4) / 4 for n >= 0, z > 0."""
    if n < 0:
        raise DomainError(f"moment index must be >= 0, got {n}")
    with ctx.workprec(16):
        zv = positive_finite(z, "z")
        val = _closed_form(n, zv, _gamma_quarter(n))
    return ctx.round(val)


def moment_sequence(z, N: int, ctx: PrecisionContext) -> list:
    """[mu_0(z), ..., mu_N(z)], each rounded to ctx, from one AGM and the
    four-step recurrence mu_{n+4} = (n+1)*mu_n/(4z).

    With w = z^(-1/4) and the lemniscate identity Gamma(1/4)^2 =
    (2 pi)^(3/2) / agm(1, sqrt 2) (Borwein & Borwein, Pi and the AGM, 1987),
    the seeds are mu_0 = w Gamma(1/4)/4, mu_1 = w^2 sqrt(pi)/4, mu_2 = w^3
    pi sqrt(2)/(4 Gamma(1/4)) by the reflection Gamma(1/4) Gamma(3/4) =
    pi sqrt(2), and mu_3 = 1/(4z).  z is parsed as moment() parses it, so a
    decimal string gives the same moments through both routes.

    Seeds and chain run at ctx.bits + 64.  Each seed carries a relative
    error below 16 units of 2^-(bits+64), and each of the at most N/4 chain
    steps to an entry adds at most two (one product, one quotient), so every
    entry is within (16 + N) * 2^-(bits+64) of the exact moment: more than 16
    bits to spare below ctx's last bit for every N < 2^47.  The rounded entry
    is therefore the correctly rounded moment unless the exact value lies
    within 2^-(bits+16) relative of a rounding boundary.
    """
    if N < 0:
        raise DomainError(f"N must be >= 0, got {N}")
    with ctx.workprec(16):
        zv = positive_finite(z, "z")
    with ctx.workprec(64):
        w = 1 / mp.sqrt(mp.sqrt(zv))
        pi, root2 = +mp.pi, mp.sqrt(2)
        gamma_quarter = mp.sqrt(2 * pi * mp.sqrt(2 * pi) / mp.agm(1, root2))
        mu = [w * gamma_quarter / 4, w ** 2 * mp.sqrt(pi) / 4,
              w ** 3 * pi * root2 / (4 * gamma_quarter), 1 / (4 * zv)][:N + 1]
        for n in range(N - 3):
            mu.append(mu[n] * (n + 1) / (4 * zv))
    return [ctx.round(v) for v in mu]


@dataclass(frozen=True)
class MomentSequence:
    """mu_0..mu_N at a fixed z, generated from the closed form at the
    precision of `ctx`."""

    z: mp.mpf
    values: tuple
    ctx: PrecisionContext

    @classmethod
    def build(cls, z, N: int, ctx: PrecisionContext) -> "MomentSequence":
        return cls.build_many([z], N, ctx)[0]

    @classmethod
    def build_many(cls, zs, N: int, ctx: PrecisionContext) -> list:
        """One sequence mu_0..mu_N per z in zs, each entry the bits moment()
        gives: every Gamma((n+1)/4) is evaluated once, at moment()'s working
        precision, and serves every z."""
        if N < 0:
            raise DomainError(f"N must be >= 0, got {N}")
        with ctx.workprec(16):
            gammas = [_gamma_quarter(n) for n in range(N + 1)]
            zvs = [positive_finite(z, "z") for z in zs]
            return [cls(zv, tuple(ctx.round(_closed_form(n, zv, g)) for n, g in enumerate(gammas)),
                        ctx) for zv in zvs]

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
        zv = positive_finite(z, "z")
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


def stieltjes_residual(mseq: MomentSequence, t, N: int) -> tuple:
    """The ODE residual t*S_N' + 4z*t^4*S_N - 4z*(mu_3 + mu_2 t + mu_1 t^2 +
    mu_0 t^3) minus the tail -sum_{n=N-3}^{N} (n+1) mu_n t^(-n-1) it
    telescopes to (every interior term cancels through the moment
    recurrence), and the scale 4z*t^4*S_N(|t|) + 1 of the sums it is a
    difference of.  S_N is the partial sum sum_{n=0}^{N} mu_n / t^(n+1) and
    S_N' its exact termwise derivative; residual, tail and partial sum are
    each rounded to the sequence's context."""
    if N < 3:
        raise DomainError(f"N must be >= 3, got {N}")
    if N >= len(mseq.values):
        raise IndexError(f"need N inside 0..{len(mseq.values) - 1}, got {N}")
    ctx, zv, mu = mseq.ctx, mseq.z, mseq.values
    with ctx.workprec(32):
        tv = mp.mpf(t)
        if tv == 0:
            raise DomainError("t must be nonzero")
        inv = 1 / tv
        tds = mp.mpf(0)   # t * dS/dt = -sum (n+1) mu_n t^(-n-1)
        s = mp.mpf(0)
        size = mp.mpf(0)  # S_N(|t|)
        p = inv
        for n in range(N + 1):
            s += mu[n] * p
            size += mu[n] * abs(p)
            tds -= (n + 1) * mu[n] * p
            p *= inv
        rhs = 4 * zv * (mu[3] + mu[2] * tv + mu[1] * tv ** 2 + mu[0] * tv ** 3)
        res = ctx.round(tds + 4 * zv * tv ** 4 * s - rhs)
        tail = ctx.round(-mp.fsum((n + 1) * mu[n] * tv ** (-n - 1) for n in range(N - 3, N + 1)))
        size = ctx.round(size)
    with ctx.workprec(64):
        return res - tail, 4 * zv * tv ** 4 * size + 1
