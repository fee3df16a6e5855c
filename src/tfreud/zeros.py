"""Zeros of P_n and everything built on top of them.

* Zeros are the eigenvalues of the Jacobi matrix, read straight from the
  table (diagonal b_0..b_{n-1}, off-diagonal products a_1..a_{n-1}); the
  eigensolver polishes each one by a guarded Newton-Halley iteration on P_n
  through the recurrence.  zeros() solves one degree on its own, the
  eigenvalues separated by Sturm counts, each read with the sign of P_n
  from one pass of the recurrence; zero_sweep() solves degrees 1..n_max in
  turn and brackets each zero of P_n between consecutive zeros of P_{n-1},
  which interlace with them, so a degree costs a few polishing steps per
  zero and no Sturm count.  Both return the same bits.  From degree
  SWEEP_SPLIT_MIN_DEGREE on, on a process that may use two CPUs,
  zero_sweep cuts its degrees into two shares of about equal cost and one
  forked helper solves the top share, its first degree as zeros() does;
  the zeros come back with all their bits, so the sweep has the same bits
  on one CPU or two.  Each polish starts from the same iteration run in
  binary64 (Python floats) and takes one step at each level of a precision
  ladder (150, 450, 1350, ... bits), so that usually one of its steps runs
  at the working precision: about 1.04 per zero at n = 16 and 1.1-1.3 at
  n = 64-256.
* The weight |y| exp(-z y^8) on the whole line has even moments equal to the
  moments of exp(-z x^4) on (0, inf), so its monic family satisfies
  S_{2n}(y) = P_n(y^2) and a chain gamma_1, gamma_2, ... with
  gamma_{2k} + gamma_{2k+1} = b_k and gamma_{2k-1} gamma_{2k} = a_k; any
  chain element times 4 cos^2(pi/(2n+1)) + eps bounds the largest zero.
* The limiting zero density after the N^{-1/4} rescaling is
  omega(x,t) = (4/(7 pi)) x^(-1/2) t^(-1/8) c^(-1/2) F(x/(4 c t^(1/4))) on
  (0, 4 c t^(1/4)), c = 140^(-1/4), where F is the Gauss series
  2F1(1/2, -7/2; -5/2; w).  Since -7/2 + 1/2 = -3 and -5/2 shift into each
  other, F collapses to the elementary closed form
      F(w) = V^7 + (21/5) w V^5 + 7 w^2 V^3 + 7 w^3 V,   V = sqrt(1-w),
  which integrates to an incomplete-beta CDF with total mass exactly 1.
  density() evaluates that closed form, and density_at(t) returns it as a
  function of x built once per t.  The integral form below is the
  library's cross-check of it; the tests compare it with mpmath's hyp2f1
  as well.
* The integral form of the density is (1/(pi t)) int ds/(sqrt(4 c s^(1/4)
  - x) sqrt(x)) taken over s where the radicand is positive, i.e. from
  s_0 = (x/(4c))^4 up to t; substituting 4 c s^(1/4) - x = r^2 leaves a
  polynomial of degree 6 in r, which 4-point Gauss-Legendre integrates
  exactly.
* density_consistency() (closed form against the integral form, contract
  1e-8) and density_normalization() (total mass, contract 1e-6) both run in
  the one fixed context DENSITY_CTX (96 bits), whatever the caller's storage
  precision; both integrals are fixed Gauss rules with closed-form nodes.
* Each zero configuration minimizes
  E_n = -2 sum_{j<k} ln|x_k - x_j| + sum_k V_n(x_k) with the external field
  V_n(x) = z x^4 + ln|calA_n(x)/(4z)|, calA_n the ladder function
  4z(x^2 + b_n x + R_n) + P_n(0)^2/(h_n x), so the analytic gradient
  vanishes at the computed zeros.
"""
from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from itertools import accumulate

import mpmath as mp

from .kernel import (RESIDUAL_GUARD_BITS, DomainError, PrecisionContext, _answer, _div,
                     _forked, _image, _mpf, _pack, _two_cpus, _unpack, positive_finite,
                     tridiag_eigenvalues)
from .operators import _over_x, ladder_A, recurrence_passes
from .recurrence import RecurrenceTable, chebyshev_coeffs

# Degree from which zero_sweep hands its top degrees to a forked helper
# (_sweep_cut).  Below it the fork and the helper's start cost about what
# the split saves: at z = 1 and default bits, medians of 11 alternating
# pairs on a 2-core box took 11.9 ms serial and 12.4 ms split at n = 11,
# 14.7 and 12.0 ms at n = 12 (BENCH_sweep_two_cpus.json).
SWEEP_SPLIT_MIN_DEGREE = 12
# The cost model that places the cut, in recurrence steps: degree n costs
# n (n + SWEEP_ZERO_STEPS), n zeros, each a few recurrence passes of n steps
# plus a per-zero constant; least-squares fits of per-degree times at
# default bits gave 5.5 at n_max = 16, 2.1 at 32 and 2.3 at 64, and any
# value from 2 to 8 moves the cut by at most one degree.  The helper's share also
# pays its start (fork, first touch of its pages, cold caches), about 3 ms
# or SWEEP_HELPER_STEPS steps at n_max = 16: with it the cut is one degree
# higher at n_max = 12 and 16, where forced cuts timed in fresh interpreters
# ran faster (BENCH_sweep_two_cpus.json).
SWEEP_ZERO_STEPS = 4
SWEEP_HELPER_STEPS = 200


@dataclass(frozen=True)
class ZeroSet:
    """x_{n,1} < ... < x_{n,n}, all positive."""

    n: int
    z: mp.mpf
    values: tuple

    def __post_init__(self):
        if len(self.values) != self.n:
            raise DomainError(f"expected {self.n} zeros, got {len(self.values)}")
        prev = mp.mpf(0)
        for v in self.values:
            if not v > prev:
                raise DomainError("zeros must be strictly increasing and positive")
            prev = v

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, k: int):
        return self.values[k]


def zeros(tbl: RecurrenceTable, n: int, ctx: PrecisionContext) -> ZeroSet:
    """Zeros of P_n as eigenvalues of the Jacobi matrix of b_0..b_{n-1} and
    a_1..a_{n-1}, polished by the eigensolver's Newton iteration."""
    if n < 1 or n > tbl.n_max:
        raise IndexError(f"need 1 <= n <= {tbl.n_max}, got {n}")
    eig = tridiag_eigenvalues(tbl.b[:n], tbl.a[1:n], ctx)
    return ZeroSet(n, ctx.round(tbl.z), tuple(eig))


def _sweep(tbl: RecurrenceTable, ctx: PrecisionContext, prev, n_top: int) -> list:
    """The ZeroSets of the degrees after the ZeroSet prev (None: from degree
    1) up to n_top, each solved in the brackets that the zeros of the degree
    before it cut."""
    z, out = ctx.round(tbl.z), []
    for n in range(prev.n + 1 if prev else 1, n_top + 1):
        eig = tridiag_eigenvalues(tbl.b[:n], tbl.a[1:n], ctx, cuts=prev.values if prev else ())
        prev = ZeroSet(n, z, tuple(eig))
        out.append(prev)
    return out


def _packed(sets) -> tuple:
    """The zeros of each ZeroSet in sets as kernel._pack packs them, for a
    helper's message."""
    return tuple(tuple(map(_pack, zs.values)) for zs in sets)


def _sweep_cut(n_max: int) -> int:
    """The top degree zero_sweep solves in this process: n_max, or, from
    SWEEP_SPLIT_MIN_DEGREE on where the process may use two CPUs
    (kernel._two_cpus), the m that cuts degrees 1..n_max into the most
    nearly equal shares, 1..m here and m+1..n_max in the helper, degree n
    costing n (n + SWEEP_ZERO_STEPS) and the helper's start
    SWEEP_HELPER_STEPS."""
    if n_max < SWEEP_SPLIT_MIN_DEGREE or not _two_cpus():
        return n_max
    below = list(accumulate(n * (n + SWEEP_ZERO_STEPS) for n in range(n_max + 1)))
    return min(range(1, n_max),
               key=lambda m: max(below[m], below[-1] - below[m] + SWEEP_HELPER_STEPS))


def zero_sweep(tbl: RecurrenceTable, n_max: int, ctx: PrecisionContext) -> list:
    """The ZeroSets of degrees 1..n_max, each equal to zeros(tbl, n, ctx).
    The zeros of P_{n-1} interlace with those of P_n, so they cut the n
    brackets degree n is solved in.

    Where the cut m = _sweep_cut(n_max) lies below n_max, one helper
    forked by kernel._forked solves degrees m+1..n_max while this process
    solves 1..m: degree m+1 on its own, as zeros() does, which gives the
    same bits, and each later degree cut by the one before.  Its zeros come
    back with all their bits in one message.  If it cannot be forked, fails or dies,
    this process carries the sweep on from its own degree m, so the result
    and any exception are those of the serial sweep; the helper is killed
    and reaped however the call ends."""
    if n_max < 1 or n_max > tbl.n_max:
        raise IndexError(f"need 1 <= n_max <= {tbl.n_max}, got {n_max}")
    m = _sweep_cut(n_max)

    def top_share(receive, send):
        first = zeros(tbl, m + 1, ctx)
        send(_packed([first] + _sweep(tbl, ctx, first, n_max)))

    with _forked(top_share) if m < n_max else nullcontext() as link:
        out = _sweep(tbl, ctx, None, m)
        top = _answer(link, lambda: _packed(_sweep(tbl, ctx, out[-1], n_max)))
    z = ctx.round(tbl.z)
    return out + [ZeroSet(n, z, tuple(map(_unpack, packed))) for n, packed in enumerate(top, m + 1)]


def interlacing_margin(outer: ZeroSet, inner: ZeroSet) -> mp.mpf:
    """Smallest gap in x_{n,k} < x_{n-1,k} < x_{n,k+1}, each gap an exact
    difference; positive means the interlacing is strict."""
    if outer.n != inner.n + 1:
        raise DomainError(f"need degrees n and n-1, got {outer.n}, {inner.n}")
    margin = None
    for k in range(inner.n):
        left = mp.fsub(inner[k], outer[k], exact=True)
        right = mp.fsub(outer[k + 1], inner[k], exact=True)
        small = min(left, right)
        margin = small if margin is None else min(margin, small)
    return margin


def zero_scaling_check(zs_z: ZeroSet, zs_1: ZeroSet, ctx: PrecisionContext) -> mp.mpf:
    """max_k |x_{n,k}(z) * z^(1/4) - x_{n,k}(1)| for the zeros of one degree
    at z and at z = 1."""
    if zs_z.n != zs_1.n:
        raise DomainError(f"need one degree, got {zs_z.n} and {zs_1.n}")
    with ctx.workprec(32):
        f = zs_z.z ** mp.mpf("0.25")
        return max(abs(zs_z[k] * f - zs_1[k]) for k in range(zs_z.n))


# ---------------------------------------------------------------------------
# largest-zero bound through the symmetrized chain
# ---------------------------------------------------------------------------

def largest_zero_bound(tbl: RecurrenceTable, n: int, eps="1e-3") -> mp.mpf:
    """max_k c_{2n} gamma_k over k = 1..2n-1, c_{2n} = 4 cos^2(pi/(2n+1)) + eps;
    an upper bound for the largest zero x_{n,n}, from the table's view gamma."""
    if n < 2:
        raise DomainError(f"need n >= 2, got {n}")
    if n > tbl.n_max:
        raise IndexError(f"need n <= {tbl.n_max}, got {n}")
    with tbl.workprec():
        ev = positive_finite(eps, "eps")
        chain = tbl.gamma[:2 * n - 1]
        for i, g in enumerate(chain, 1):
            if not g > 0:
                raise DomainError(f"gamma_{i} = {mp.nstr(g, 8)} not positive")
        c2n = 4 * mp.cos(mp.pi / (2 * n + 1)) ** 2 + ev
        return c2n * max(chain)


# ---------------------------------------------------------------------------
# asymptotic zero density
# ---------------------------------------------------------------------------

# The density records are judged at 1e-8 (closed form against the integral
# form) and 1e-6 (total mass); 96 bits leave about 70 bits of headroom below
# the tighter contract.  The Gauss rules cost little at any precision, but
# the records' residuals are rounding gaps at these bits, so they run here
# and not at a table's, and print the same bytes at every --bits.
DENSITY_CTX = PrecisionContext(96)


@dataclass(frozen=True)
class DensityModel:
    """Support data of the rescaled-zero density at time t."""

    beta_t: mp.mpf

    @classmethod
    def for_t(cls, t, ctx: PrecisionContext) -> "DensityModel":
        with ctx.workprec(32):
            beta = 4 * mp.mpf(140) ** mp.mpf("-0.25") * positive_finite(t, "t") ** mp.mpf("0.25")
        return cls(ctx.round(beta))


def density_at(t, ctx: PrecisionContext):
    """x -> density(x, t, ctx), with the model and the x-free factors of the
    prefactor (4/(7 pi)) x^(-1/2) t^(-1/8) c^(-1/2) built once."""
    with ctx.workprec(32):
        tv = mp.mpf(t)
        model = DensityModel.for_t(tv, ctx)
        lead = 4 / (7 * mp.pi)
        t8 = tv ** mp.mpf("0.125")
        root_c = mp.sqrt(mp.mpf(140) ** mp.mpf("-0.25"))

    def omega(x):
        with ctx.workprec(32):
            xv = mp.mpf(x)
            if not 0 < xv < model.beta_t:
                raise DomainError(f"x must lie in (0, {mp.nstr(model.beta_t, 8)})")
            f = density_closed_form(xv / model.beta_t, ctx)
            return ctx.round(lead / (mp.sqrt(xv) * t8 * root_c) * f)

    return omega


def density(x, t, ctx: PrecisionContext) -> mp.mpf:
    """omega(x, t) through the closed form of F at w = x/(4 c t^(1/4))."""
    return density_at(t, ctx)(x)


def density_integral(x, t, ctx: PrecisionContext) -> mp.mpf:
    """omega(x, t) as (1/(pi t)) int ds/(sqrt(4 c s^(1/4) - x) sqrt(x)) over
    the s with positive radicand, i.e. s in (s_0, t), s_0 = (x/(4c))^4.

    Substituting 4 c s^(1/4) - x = r^2 turns the integral into
    (2/c) int_0^R ((x + r^2)/(4c))^3 dr, R^2 = 4 c t^(1/4) - x: a polynomial
    of degree 6 in r, which the 4-point Gauss-Legendre rule (exact to
    degree 7) integrates exactly.  R^2 is formed at the working precision,
    not from the rounded beta_t, since near the support edge it cancels."""
    with ctx.workprec(32):
        xv, tv = mp.mpf(x), mp.mpf(t)
        model = DensityModel.for_t(tv, ctx)
        if not 0 < xv < model.beta_t:
            raise DomainError(f"x must lie in (0, {mp.nstr(model.beta_t, 8)})")
        c = mp.mpf(140) ** mp.mpf("-0.25")
        R2 = 4 * c * tv ** mp.mpf("0.25") - xv
        if R2 <= 0:
            # x within an ulp of the support edge: the r-interval collapses
            return ctx.round(mp.mpf(0))
        half = mp.sqrt(R2) / 2
        root = 2 * mp.sqrt(mp.mpf(6) / 5)
        acc = mp.mpf(0)
        for sign in (-1, 1):
            node = mp.sqrt((3 + sign * root) / 7)
            weight = (18 - sign * mp.sqrt(30)) / 36
            for r in (half * (1 - node), half * (1 + node)):
                acc += weight * (xv + r * r) ** 3
        val = 2 * half * acc / (c * (4 * c) ** 3)
        return ctx.round(val / (mp.pi * tv * mp.sqrt(xv)))


def density_closed_form(w, ctx: PrecisionContext) -> mp.mpf:
    """The elementary form of 2F1(1/2,-7/2;-5/2;w) on [0, 1]."""
    with ctx.workprec(32):
        wv = mp.mpf(w)
        if not 0 <= wv <= 1:
            raise DomainError("w must lie in [0, 1]")
        V = mp.sqrt(1 - wv)
        val = V ** 7 + mp.mpf(21) / 5 * wv * V ** 5 + 7 * wv ** 2 * V ** 3 \
            + 7 * wv ** 3 * V
        return ctx.round(val)


def density_cdf(w, ctx: PrecisionContext) -> mp.mpf:
    """G(w) = (8/(7 pi)) int_0^w s^(-1/2) F(s) ds: the CDF of the density in
    the support coordinate w = x/beta_t (t-independent).  Expanding F term
    by term gives four incomplete Beta integrals; G(1) = 1 exactly."""
    with ctx.workprec(32):
        wv = mp.mpf(w)
        if wv <= 0:
            return mp.mpf(0)
        if wv >= 1:
            return mp.mpf(1)
        half = mp.mpf("0.5")
        acc = mp.betainc(half, mp.mpf("4.5"), 0, wv)
        acc += mp.mpf(21) / 5 * mp.betainc(half + 1, mp.mpf("3.5"), 0, wv)
        acc += 7 * mp.betainc(half + 2, mp.mpf("2.5"), 0, wv)
        acc += 7 * mp.betainc(half + 3, mp.mpf("1.5"), 0, wv)
        return ctx.round(8 / (7 * mp.pi) * acc)


def density_consistency(t) -> mp.mpf:
    """The worst relative gap |density - density_integral| / density over
    w = x/beta_t in {0.05, 0.2, 0.5, 0.7, 0.9}, both forms in DENSITY_CTX:
    the contract on the result is 1e-8."""
    ctx = DENSITY_CTX
    # grid and gaps at the density functions' working precision: on a
    # 96-bit grid both forms round alike and the gap reads 0 at t = 1
    with ctx.workprec(32):
        tv = mp.mpf(t)
        model = DensityModel.for_t(tv, ctx)
        omega = density_at(tv, ctx)
        worst = mp.mpf(0)
        for wq in ("0.05", "0.2", "0.5", "0.7", "0.9"):
            x = mp.mpf(wq) * model.beta_t
            closed = omega(x)
            worst = max(worst, abs(closed - density_integral(x, tv, ctx)) / closed)
        return worst


def density_normalization(t) -> mp.mpf:
    """int_0^{beta_t} omega(x, t) dx by a Gauss rule over density() itself.
    With x = beta_t cos^2(theta), omega dx is sin^2(theta) times an even
    polynomial of degree 6 in cos(theta), which Gauss-Chebyshev of the second
    kind with N = 6 nodes theta_k = k pi/7 integrates exactly; by symmetry
    the mass is (pi/7) sum over k = 1, 2, 3 of omega(x_k) beta_t sin(2 theta_k).
    Runs in DENSITY_CTX: the contract on the result is 1e-6."""
    qctx = DENSITY_CTX
    with qctx.workprec():
        tv = mp.mpf(t)
        beta = DensityModel.for_t(tv, qctx).beta_t
        omega = density_at(tv, qctx)
        total = mp.mpf(0)
        for k in (1, 2, 3):
            theta = k * mp.pi / 7
            total += omega(beta * mp.cos(theta) ** 2) * beta * mp.sin(2 * theta)
        return mp.pi / 7 * total


def empirical_density_distance(n: int, N: int, t, ctx: PrecisionContext) -> mp.mpf:
    """Kolmogorov distance between the empirical CDF of the rescaled zeros
    x_{n,k}(1)/N^(1/4) and the model CDF at time t."""
    if n < 1 or N < 1:
        raise DomainError("n and N must be positive")
    with ctx.workprec(32):
        tv = mp.mpf(t)
        tbl = chebyshev_coeffs(mp.mpf(1), n, ctx)
        zs = zeros(tbl, n, ctx)
        model = DensityModel.for_t(tv, ctx)
        scale = mp.mpf(N) ** mp.mpf("0.25")
        worst = mp.mpf(0)
        for k in range(n):
            w = zs[k] / (scale * model.beta_t)
            g = density_cdf(w, ctx)
            worst = max(worst, abs(g - mp.mpf(k) / n), abs(g - mp.mpf(k + 1) / n))
        return worst


# ---------------------------------------------------------------------------
# electrostatics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ElectroSystem:
    energy: mp.mpf
    gradient: tuple


def _fields(tbl: RecurrenceTable, n: int, xs) -> list:
    """(V_n(x), V_n'(x)) for each x in xs, with the value and slope of
    calA_n from one Horner pass on its numerator: V_n = z x^4 +
    ln|calA_n/(4z)|, V_n' = 4z x^3 + calA_n'/calA_n."""
    num = tuple(map(_image, ladder_A(tbl, n)))
    bits = tbl.ctx.bits + RESIDUAL_GUARD_BITS
    with tbl.workprec():
        z = tbl.z
        out = []
        for x in map(mp.mpf, xs):
            if x == 0:
                raise DomainError("x = 0 is a pole of the potential")
            A, dA = _over_x(num, _image(x), bits)
            if not A[0]:
                raise DomainError("log argument vanishes")
            dlog = _mpf(_div(dA, A, bits))
            out.append((z * x ** 4 + mp.log(abs(_mpf(A) / (4 * z))), 4 * z * x ** 3 + dlog))
        return out


def electro_energy(tbl: RecurrenceTable, positions) -> ElectroSystem:
    """Total energy E_n = -2 sum_{j<k} ln|x_k - x_j| + sum_k V_n(x_k) of
    n = len(positions) charges and its analytic gradient."""
    with tbl.workprec():
        pts = [mp.mpf(p) for p in positions]
        n = len(pts)
        if len(set(pts)) != n:
            raise DomainError("positions must be distinct")
        fields = _fields(tbl, n, pts)
        pair = mp.fsum(mp.log(abs(pts[k] - pts[j]))
                       for k in range(n) for j in range(k))
        energy = -2 * pair + mp.fsum(v for v, _ in fields)
        grad = []
        for k in range(n):
            coul = mp.fsum(1 / (pts[k] - pts[j]) for j in range(n) if j != k)
            grad.append(-2 * coul + fields[k][1])
        return ElectroSystem(energy, tuple(grad))


def stationarity_check(tbl: RecurrenceTable, zs: ZeroSet) -> mp.mpf:
    """max |gradient at the zeros zs of P_n| divided by the gradient scale at
    the same configuration stretched by 1%: small iff the zeros really are
    the equilibrium."""
    with tbl.workprec():
        sys0 = electro_energy(tbl, zs.values)
        bumped = [v * (1 + mp.mpf("0.01") * (1 if k % 2 else -1))
                  for k, v in enumerate(zs.values)]
        sysp = electro_energy(tbl, bumped)
        scale = max(abs(g) for g in sysp.gradient)
        return max(abs(g) for g in sys0.gradient) / scale


# ---------------------------------------------------------------------------
# holonomic identity at the zeros
# ---------------------------------------------------------------------------

def ode_at_zeros_check(tbl: RecurrenceTable, n: int) -> mp.mpf:
    """max over zeros of the scaled residual of P_n''(x)/P_n'(x) = V_n'(x),
    i.e. 4 z x^3 + (ln calA_n)'(x)."""
    if n < 1:
        raise IndexError(f"need n >= 1, got {n}")
    zs = zeros(tbl, n, tbl.ctx)
    fields = _fields(tbl, n, zs.values)
    with tbl.workprec():
        worst = mp.mpf(0)
        for ps, (_, rhs) in zip(recurrence_passes(tbl, n, zs.values), fields):
            _, d1, d2 = ps[n]
            lhs = d2 / d1
            worst = max(worst, abs(lhs - rhs) / (abs(lhs) + abs(rhs) + 1))
        return worst


# ---------------------------------------------------------------------------
# comparison families
# ---------------------------------------------------------------------------

def comparison_beta(ctx: PrecisionContext) -> mp.mpf:
    with ctx.workprec(32):
        return 2 * mp.mpf(140) ** mp.mpf("-0.25")


def chebyshev_zeros(n: int, ctx: PrecisionContext) -> tuple:
    """Closed-form zeros y_{n,k} = beta (cos((n-k+1) pi/(n+1)) + 1), k = 1..n,
    of the shifted Chebyshev family Q_n with constant recurrence
    x Q_n = Q_{n+1} + beta Q_n + (beta^2/4) Q_{n-1}."""
    if n < 1:
        raise DomainError(f"need n >= 1, got {n}")
    with ctx.workprec(32):
        beta = comparison_beta(ctx)
        return tuple(beta * (mp.cos(mp.pi * (n - k + 1) / (n + 1)) + 1)
                     for k in range(1, n + 1))


def ptilde_zeros(n: int, ctx: PrecisionContext) -> tuple:
    """Zeros of the variable-coefficient comparison family
    x Pt_n = Pt_{n+1} + n^(1/4) beta Pt_n + sqrt(n) (beta^2/4) Pt_{n-1}
    (diag_0 = 0 since Pt_1 = x)."""
    if n < 1:
        raise DomainError(f"need n >= 1, got {n}")
    with ctx.workprec(32):
        beta = comparison_beta(ctx)
        quarter = mp.mpf("0.25")
        diag = [mp.mpf(0)] + [mp.mpf(k) ** quarter * beta for k in range(1, n)]
        off2 = [mp.sqrt(k) * beta ** 2 / 4 for k in range(1, n)]
        if n == 1:
            return (mp.mpf(0),)
        return tuple(tridiag_eigenvalues(diag, off2, ctx))
