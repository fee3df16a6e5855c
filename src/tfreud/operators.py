"""Operator identities attached to the recurrence table.

Everything in this module is a consequence of the three-term recurrence plus
the distributional Pearson equation of the weight exp(-z*x^4) on (0, inf):

* x^4 P_n expands over P_{n-4}..P_{n+4} with coefficients beta_{n,k}; the
  matrix of the expansion is the fourth power of the Jacobi matrix.
* x P'_{n+1} expands over P_{n-3}..P_{n+1} (structure relation) with
  coefficients 4z*beta_{n+1,k}.
* Eliminating P_{n-1}..P_{n-3} through the recurrence turns the structure
  relation into lowering/raising operators with rational coefficients
  A_n = x/C_n, B_n = D_n/C_n, and composing them gives one second-order ODE;
  the ladder functions calA_n, calB_n (quadratic resp. linear plus a simple
  pole at 0) give an independent second-order ODE.
* The degree-graded operator L = 4z*(J^4)_lower + diag(0,1,2,...) satisfies
  the compatibility identity J L - L J = J on rows unaffected by truncation.

The scalar identities i and ii return (residual, scale), to be judged as
|residual| <= verify_tol(scale).  Every identity in x is checked on a
log-spaced sample grid instead, reading P_k, P_k' and P_k'' from one
RecurrencePass per sample; one call scores a range of degrees, one result
per degree, and evaluates each ladder function once per sample.  Structure,
lowering, raising, compatibility and both ODEs give their residual divided
by the sum of its term magnitudes plus 1, the confluent kernel identity its
relative deviation.  Eight samples cannot prove a polynomial identity of
higher degree, so these are numerical checks, not coefficient-wise proofs.
They run on the kernel's integer images at the table's working precision,
every term, sum and ratio rounded in the order of the mpf expression it
stands for, so each residual has the mpf bits and becomes an mpf once.
Only the symbolic derivatives of the rational functions, lowering_data and
v' = 4z x^3 run in mpf: past 333 mantissa bits mpmath's cube is a binary
power that is not always correctly rounded, so no image form is sure to
give its bits.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

import mpmath as mp

from .kernel import (RESIDUAL_GUARD_BITS, DomainError, PrecisionContext, RationalFn, _add, _cmp,
                     _div, _horner, _image, _mpf, _mul, _neg, _neg_images, _sub, _sum, _ttrr_d2,
                     poly_add, poly_mul, poly_scale, poly_sub, poly_trim)
from .recurrence import RecurrenceTable, band_lower, band_row, bracket_i


def sample_grid(n: int, z, ctx: PrecisionContext, count: int):
    """Log-spaced sample points in (0.01, 4*(n/(140z))^(1/4) + 1): covers the
    oscillatory region of P_n and a margin of tail."""
    with ctx.workprec(64):
        zv = mp.mpf(z)
        hiv = 4 * (mp.mpf(max(n, 1)) / (140 * zv)) ** mp.mpf("0.25") + 1
        llo, lhi = mp.log(mp.mpf("0.01")), mp.log(hiv)
        return [mp.exp(llo + (lhi - llo) * k / (count - 1)) for k in range(count)]


@dataclass(frozen=True)
class RecurrencePass:
    """P_k(x), P_k'(x) and P_k''(x) for k = 0..n at one point x, from
    one run of the recurrence and its two formal derivatives (the loop
    kernel._ttrr_d2 on integer images) at the table's working precision.
    Near the top of the zero range this is much better conditioned than
    Horner on monomial coefficients, whose alternating signs cancel heavily
    there.  The sampled records read `images`; indexing converts to mpf."""

    x: mp.mpf
    images: tuple

    def __getitem__(self, k: int) -> tuple:
        """(P_k(x), P_k'(x), P_k''(x))."""
        return tuple(map(_mpf, self.images[k]))


def recurrence_passes(tbl: RecurrenceTable, n: int, x_samples) -> tuple:
    """One RecurrencePass to degree n at each sample; reads b_0..b_{n-1} and
    a_0..a_{n-1}, converted to images once for all samples."""
    if n < 0 or n > tbl.n_max + 1:
        raise IndexError(f"need 0 <= n <= {tbl.n_max + 1}, got {n}")
    nb, na = _neg_images(tbl.b, tbl.a, n)
    bits = tbl.ctx.bits + RESIDUAL_GUARD_BITS
    with tbl.workprec():
        xs = [mp.mpf(x) for x in x_samples]
    return tuple(RecurrencePass(x, tuple(_ttrr_d2(nb, na, n, _image(x), bits))) for x in xs)


def _scaled(residual, terms, bits) -> tuple:
    """|residual| divided by the sum of the term magnitudes plus 1, on images
    rounded to `bits` in the order of the mpf sum 0 + |t_0| + ... + 1."""
    scale = _add(_sum([(abs(m), e) for m, e in terms], bits), (1, 0), bits)
    return _div((abs(residual[0]), residual[1]), scale, bits)


def _max(u, v) -> tuple:
    return v if _cmp(v, u) > 0 else u


# ---------------------------------------------------------------------------
# beta rows and the J^4 identity
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BetaRow:
    """Row n of the x^4 expansion: x^4 P_n = P_{n+4} + sum_k beta_{n,k} P_k,
    k = max(0, n-4)..n+3.  coeffs maps k to beta_{n,k}."""

    n: int
    coeffs: dict

    def as_vector(self, size: int) -> list:
        """Dense row of length `size` including the implicit 1 at k = n+4."""
        row = [mp.mpf(0)] * size
        for k, v in self.coeffs.items():
            if k < size:
                row[k] = v
        if self.n + 4 < size:
            row[self.n + 4] = mp.mpf(1)
        return row


def beta_row(tbl: RecurrenceTable, n: int) -> BetaRow:
    """The eight explicit coefficients; rows with n < 4 drop the k < 0 slots
    (their formulas vanish through a_0 = 0 in exact arithmetic)."""
    if n < 0 or n > tbl.n_max - 3:
        raise IndexError(f"beta row needs 0 <= n <= {tbl.n_max - 3}, got {n}")
    with tbl.workprec():
        return BetaRow(n, band_row(tbl.a, tbl.b, n))


def beta_lower(tbl: RecurrenceTable, m: int) -> dict:
    """Only beta_{m,m-1}..beta_{m,m-4}: what the structure relation needs.
    Valid for m <= n_max - 1 (less lookahead than a full row); negative keys
    carry exact zeros through the a_0 = 0 convention."""
    if m < 1 or m > tbl.n_max - 1:
        raise IndexError(f"need 1 <= m <= {tbl.n_max - 1}, got {m}")
    with tbl.workprec():
        return band_lower(tbl.a, tbl.b, m)


def jacobi_matrix(tbl: RecurrenceTable, size: int) -> list:
    """Truncated monic Jacobi matrix: J[i][i] = b_i, J[i][i+1] = 1,
    J[i][i-1] = a_i."""
    if size < 1 or size > tbl.n_max + 1:
        raise DomainError(f"size must be in 1..{tbl.n_max + 1}, got {size}")
    J = [[mp.mpf(0)] * size for _ in range(size)]
    for i in range(size):
        J[i][i] = tbl.b[i]
        if i + 1 < size:
            J[i][i + 1] = mp.mpf(1)
        if i >= 1:
            J[i][i - 1] = tbl.a[i]
    return J


def mat_mul(A: list, B: list) -> list:
    n, m, p = len(A), len(B), len(B[0])
    out = [[mp.mpf(0)] * p for _ in range(n)]
    for i in range(n):
        Ai = A[i]
        for k in range(m):
            aik = Ai[k]
            if aik == 0:
                continue
            Bk = B[k]
            oi = out[i]
            for j in range(p):
                oi[j] += aik * Bk[j]
    return out


# ---------------------------------------------------------------------------
# structure relation
# ---------------------------------------------------------------------------

def structure_coeffs(tbl: RecurrenceTable, n: int) -> tuple:
    """(c_n, c_{n-1}, c_{n-2}, c_{n-3}) with c_k = 4z*beta_{n+1,k}: the
    coefficients of x*P'_{n+1} - (n+1)*P_{n+1} over P_{n-3}..P_n."""
    if n < 0 or n > tbl.n_max - 2:
        raise IndexError(f"need 0 <= n <= {tbl.n_max - 2}, got {n}")
    lower = beta_lower(tbl, n + 1)
    with tbl.workprec():
        return tuple(4 * tbl.z * lower[n - j] for j in range(4))


def structure_residual(tbl: RecurrenceTable, n_max: int, passes) -> tuple:
    """Scaled max residual of x*P'_{n+1} - (n+1)*P_{n+1} - sum_j c_{n-j} P_{n-j}
    over the passes (each to degree >= n_max + 1), one per n = 0..n_max."""
    coeffs = [[_image(c) for c in structure_coeffs(tbl, n)[:n + 1]] for n in range(n_max + 1)]
    bits = tbl.ctx.bits + RESIDUAL_GUARD_BITS
    worst = [(0, 0)] * (n_max + 1)
    for ps in passes:
        x = _image(ps.x)
        for n, cs in enumerate(coeffs):
            p, d, _ = ps.images[n + 1]
            terms = [_mul(x, d, bits), _mul((n + 1, 0), p, bits)] + [
                _mul(c, ps.images[n - j][0], bits) for j, c in enumerate(cs)]
            residual = _sub(terms[0], _sum(terms[1:], bits), bits)
            worst[n] = _max(worst[n], _scaled(residual, terms, bits))
    return tuple(map(_mpf, worst))


# ---------------------------------------------------------------------------
# ladder functions calA_n, calB_n and their identities
# ---------------------------------------------------------------------------

def ladder_A(tbl: RecurrenceTable, n: int) -> RationalFn:
    """calA_n = 4z(x^2 + b_n x + R_n) + P_n(0)^2/(h_n x), stored over the
    denominator x; defined for 0 <= n <= n_max - 1."""
    if n < 0 or n > tbl.n_max - 1:
        raise IndexError(f"need 0 <= n <= {tbl.n_max - 1}, got {n}")
    with tbl.workprec():
        f = 4 * tbl.z
        return RationalFn((tbl.at_zero[n] ** 2 / tbl.h[n], f * tbl.R(n), f * tbl.b[n], f),
                          (mp.mpf(0), mp.mpf(1)))


def ladder_B(tbl: RecurrenceTable, n: int) -> RationalFn:
    """calB_n = 4z a_n (x + b_n + b_{n-1}) + P_n(0) P_{n-1}(0)/(h_{n-1} x),
    stored over the denominator x; defined for 1 <= n <= n_max - 1."""
    if n < 1 or n > tbl.n_max - 1:
        raise IndexError(f"need 1 <= n <= {tbl.n_max - 1}, got {n}")
    p0 = tbl.at_zero
    with tbl.workprec():
        f = 4 * tbl.z
        return RationalFn((p0[n] * p0[n - 1] / tbl.h[n - 1],
                           f * tbl.T(n), f * tbl.a[n]),
                          (mp.mpf(0), mp.mpf(1)))


def identity_i_residual(tbl: RecurrenceTable, n: int) -> tuple:
    """4z(T_{n+1} + b_n R_n + T_n) - P_n(0)^2/h_n and the magnitude of the
    matching side (for tolerance scaling)."""
    if n < 0 or n > tbl.n_max - 1:
        raise IndexError(f"need 0 <= n <= {tbl.n_max - 1}, got {n}")
    with tbl.workprec():
        lhs = 4 * tbl.z * bracket_i(tbl.a, tbl.b, n)
        rhs = tbl.at_zero[n] ** 2 / tbl.h[n]
        return lhs - rhs, max(abs(lhs), abs(rhs))


def identity_ii_residual(tbl: RecurrenceTable, n: int) -> tuple:
    """4z(a_{n+1}R_{n+1} - a_n R_{n-1} + b_n(T_{n+1} - T_n))
    - [1 + P_n(0)(P_{n+1}(0) - a_n P_{n-1}(0))/h_n], plus the scale."""
    if n < 1 or n > tbl.n_max - 2:
        raise IndexError(f"need 1 <= n <= {tbl.n_max - 2}, got {n}")
    p0 = tbl.at_zero
    with tbl.workprec():
        lhs = 4 * tbl.z * (tbl.a[n + 1] * tbl.R(n + 1) - tbl.a[n] * tbl.R(n - 1)
                           + tbl.b[n] * (tbl.T(n + 1) - tbl.T(n)))
        rhs = 1 + p0[n] * (p0[n + 1] - tbl.a[n] * p0[n - 1]) / tbl.h[n]
        return lhs - rhs, max(abs(lhs), abs(rhs))


def ladder_residuals(tbl: RecurrenceTable, n_max: int, passes) -> tuple:
    """Scaled max residuals (compat_first, compat_second, ode_eliminated),
    one triple per n = 1..n_max:

        calB_{n+1} + calB_n = (x - b_n) calA_n - v'
        a_{n+1} calA_{n+1} - a_n calA_{n-1} = 1 + (x - b_n)(calB_{n+1} - calB_n)
        P_n'' + S P_n' + Q P_n = 0,  S = -v' - calA_n'/calA_n,
        Q = calB_n' - calB_n calA_n'/calA_n - calB_n(v' + calB_n) + a_n calA_n calA_{n-1}

    (v = z x^4); the ODE eliminates P_{n-1} from the first-order ladder pair
    (d/dx + calB_n) P_n = a_n calA_n P_{n-1}, -(d/dx - calB_n - v') P_{n-1}
    = calA_{n-1} P_n.  calA_0..calA_{n_max+1}, calB_1..calB_{n_max+1}, the
    derivatives of degrees 1..n_max and v' are evaluated once per sample and
    read by every degree and identity that needs them.  All three compare
    against verify_tol(1).  calA_n has no zero on (0, inf); the pole x = 0
    is refused.  y, y', y'' are degree n of the passes (each to degree >=
    n_max), which keeps the ODE residual floor near unit roundoff."""
    if n_max < 1 or n_max > tbl.n_max - 2:
        raise IndexError(f"need 1 <= n_max <= {tbl.n_max - 2}, got {n_max}")
    A = [ladder_A(tbl, k) for k in range(n_max + 2)]
    B = [ladder_B(tbl, k) for k in range(1, n_max + 2)]
    bits = tbl.ctx.bits + RESIDUAL_GUARD_BITS
    worst = [[(0, 0)] * 3 for _ in range(n_max)]
    with tbl.workprec():
        dA, dB = ([g.derivative() for g in fns] for fns in (A[1:-1], B[:-1]))
        vps = [_image(4 * tbl.z * ps.x ** 3) for ps in passes]
    for ps, vp in zip(passes, vps):
        if ps.x == 0:
            raise DomainError("sample grid touches the pole at x = 0")
        x = _image(ps.x)
        vA = [g.at(x, bits) for g in A]
        vB = [None] + [g.at(x, bits) for g in B]
        for n in range(1, n_max + 1):
            an, bn, vB_n, vB_up = _image(tbl.a[n]), _image(tbl.b[n]), vB[n], vB[n + 1]
            xb = _sub(x, bn, bits)
            t1 = (vB_up, vB_n, _mul(xb, vA[n], bits), vp)
            t2 = (_mul(_image(tbl.a[n + 1]), vA[n + 1], bits), _mul(an, vA[n - 1], bits),
                  _mul(xb, _sub(vB_up, vB_n, bits), bits))
            y, y1, y2 = ps.images[n]
            logd = _div(dA[n - 1].at(x, bits), vA[n], bits)
            Q = _sum((dB[n - 1].at(x, bits), _neg(_mul(vB_n, logd, bits)),
                      _neg(_mul(vB_n, _add(vp, vB_n, bits), bits)),
                      _mul(_mul(an, vA[n], bits), vA[n - 1], bits)), bits)
            t3 = (y2, _mul(_sub(_neg(vp), logd, bits), y1, bits), _mul(Q, y, bits))
            sums = (_sum((vB_up, vB_n, _neg(t1[2]), vp), bits),
                    _sum((t2[0], _neg(t2[1]), (-1, 0), _neg(t2[2])), bits), _sum(t3, bits))
            worst[n - 1] = [_max(w, _scaled(r, t, bits))
                            for w, r, t in zip(worst[n - 1], sums, (t1, t2, t3))]
    return tuple(tuple(map(_mpf, w)) for w in worst)


# ---------------------------------------------------------------------------
# lowering / raising operators and the composed second-order ODE
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LoweringData:
    """x P'_{n+1} + D_n P_{n+1} = C_n P_n; A_n = x/C_n, B_n = D_n/C_n."""

    n: int
    C: tuple
    D: tuple
    A: RationalFn
    B: RationalFn


def lowering_data(tbl: RecurrenceTable, n: int) -> LoweringData:
    """C_n (cubic) and D_n (quadratic) by eliminating P_{n-1}, P_{n-2},
    P_{n-3} from the structure relation through the recurrence.

    At n = 2 there is no P_{n-3} term (its coefficient c3 contains the
    factor a_0 = 0), so C_2 is quadratic and D_2 linear; the cubic/quadratic
    degrees hold from n = 3 on."""
    if n < 2 or n > tbl.n_max - 2:
        raise IndexError(f"need 2 <= n <= {tbl.n_max - 2}, got {n}")
    c0, c1, c2, c3 = structure_coeffs(tbl, n)
    a, b = tbl.a, tbl.b
    with tbl.workprec():
        # P_{n-1} = q1*P_n - (1/a_n)*P_{n+1}, q1 = (x-b_n)/a_n
        # P_{n-2} = q2*P_n - ((x-b_{n-1})/(a_n a_{n-1}))*P_{n+1}
        # P_{n-3} = q3*P_n - (((x-b_{n-2})(x-b_{n-1})-a_{n-1})/(a_n a_{n-1} a_{n-2}))*P_{n+1}
        xb_n = [-b[n], mp.mpf(1)]
        xb_m1 = [-b[n - 1], mp.mpf(1)]
        inner = poly_sub(poly_mul(xb_m1, xb_n), [a[n]])       # (x-b_{n-1})(x-b_n) - a_n
        q1 = poly_scale(xb_n, 1 / a[n])
        q2 = poly_scale(inner, 1 / (a[n] * a[n - 1]))

        C = poly_add([c0], poly_scale(q1, c1))
        C = poly_add(C, poly_scale(q2, c2))

        # D_n = -(n+1) + c1/a_n + c2*(x-b_{n-1})/(a_n a_{n-1})
        #       + c3*((x-b_{n-2})(x-b_{n-1}) - a_{n-1})/(a_n a_{n-1} a_{n-2})
        D = [-mp.mpf(n + 1) + c1 / a[n]]
        D = poly_add(D, poly_scale(xb_m1, c2 / (a[n] * a[n - 1])))

        if n >= 3:
            xb_m2 = [-b[n - 2], mp.mpf(1)]
            q3_num = poly_sub(poly_mul(xb_m2, inner), poly_scale(xb_n, a[n - 1]))
            q3 = poly_scale(q3_num, 1 / (a[n] * a[n - 1] * a[n - 2]))
            C = poly_add(C, poly_scale(q3, c3))
            quad = poly_sub(poly_mul(xb_m2, xb_m1), [a[n - 1]])
            D = poly_add(D, poly_scale(quad, c3 / (a[n] * a[n - 1] * a[n - 2])))

        C = poly_trim(C)
        D = poly_trim(D)
        return LoweringData(n, tuple(C), tuple(D),
                            RationalFn((mp.mpf(0), mp.mpf(1)), tuple(C)),
                            RationalFn(tuple(D), tuple(C)))


def lowering_raising_apply(tbl: RecurrenceTable, lowering, passes) -> tuple:
    """Scaled max residuals (lowering, raising), one pair per n = data.n in
    `lowering`, of

        x P'_{n+1} + D_n P_{n+1} - C_n P_n
        -a_{n+1}[x P'_{n+1} + D_n P_{n+1}] + (x - b_{n+1}) C_n P_{n+1} - C_n P_{n+2}

    over the passes (each to degree >= n + 2); C_n(x), D_n(x) and the terms
    of the lowering identity are formed once per sample for both."""
    bits = tbl.ctx.bits + RESIDUAL_GUARD_BITS
    xs = [_image(ps.x) for ps in passes]
    out = []
    for data in lowering:
        n = data.n
        a_up, b_up = _image(tbl.a[n + 1]), _image(tbl.b[n + 1])
        D, C = data.B.images
        low = up = (0, 0)
        for x, ps in zip(xs, passes):
            p, d, _ = ps.images[n + 1]
            vC = _horner(C, x, bits)
            t1 = (_mul(x, d, bits), _mul(_horner(D, x, bits), p, bits),
                  _mul(vC, ps.images[n][0], bits))
            t2 = (_mul(a_up, t1[0], bits), _mul(a_up, t1[1], bits),
                  _mul(_mul(_sub(x, b_up, bits), vC, bits), p, bits),
                  _mul(vC, ps.images[n + 2][0], bits))
            low = _max(low, _scaled(_sum((t1[0], t1[1], _neg(t1[2])), bits), t1, bits))
            up = _max(up, _scaled(_sum((t2[2], *map(_neg, t2[:2] + t2[3:])), bits), t2, bits))
        out.append((_mpf(low), _mpf(up)))
    return tuple(out)


def holonomic_residual_Dn(tbl: RecurrenceTable, lowering, passes) -> tuple:
    """Scaled max residual of the composed second-order operator

        a_n A_n A_{n-1} y'' + [A_n(a_n B_{n-1} - x + b_n) + a_n A_{n-1}(A_n' + B_n)] y'
        + [a_n B_n' A_{n-1} + B_n(a_n B_{n-1} - x + b_n) + 1] y

    applied to y = P_{n+1}, one per degree n of `lowering` (LoweringData of
    consecutive degrees) after its first.  Each A_k, B_k is evaluated once
    per sample, for n = k and n = k + 1; A', B' are symbolic rational
    derivatives.  y, y', y'' are degree n + 1 of the passes (each to degree
    >= n + 1), which keeps the residual floor near unit roundoff."""
    with tbl.workprec():
        ders = [(data.A.derivative(), data.B.derivative()) for data in lowering[1:]]
    bits = tbl.ctx.bits + RESIDUAL_GUARD_BITS
    worst = [(0, 0)] * len(ders)
    for ps in passes:
        x = _image(ps.x)
        vals = [(data.A.at(x, bits), data.B.at(x, bits)) for data in lowering]
        for i, data in enumerate(lowering[1:]):
            (Ap_x, Bp_x), (An_x, Bn_x) = vals[i], vals[i + 1]
            (dA, dB), n = ders[i], data.n
            an, bn, (y, y1, y2) = _image(tbl.a[n]), _image(tbl.b[n]), ps.images[n + 1]
            mid = _sum((_mul(an, Bp_x, bits), _neg(x), bn), bits)
            c2 = _mul(_mul(an, An_x, bits), Ap_x, bits)
            c1 = _add(_mul(An_x, mid, bits),
                      _mul(_mul(an, Ap_x, bits), _add(dA.at(x, bits), Bn_x, bits), bits), bits)
            c0 = _sum((_mul(_mul(an, dB.at(x, bits), bits), Ap_x, bits),
                       _mul(Bn_x, mid, bits), (1, 0)), bits)
            terms = (_mul(c2, y2, bits), _mul(c1, y1, bits), _mul(c0, y, bits))
            worst[i] = _max(worst[i], _scaled(_sum(terms, bits), terms, bits))
    return tuple(map(_mpf, worst))


def confluent_check(tbl: RecurrenceTable, n_max: int, passes) -> tuple:
    """Max relative deviation between sum_{k<=n} P_k(x)^2/h_k (one running
    sum per sample, added left to right) and (P'_{n+1} P_n - P'_n P_{n+1})/h_n
    over the passes (each to degree >= n_max + 1), one per n = 0..n_max."""
    if n_max < 0 or n_max > tbl.n_max:
        raise IndexError(f"need 0 <= n_max <= {tbl.n_max}, got {n_max}")
    h = [_image(v) for v in tbl.h[:n_max + 1]]
    bits = tbl.ctx.bits + RESIDUAL_GUARD_BITS
    worst = [(0, 0)] * (n_max + 1)
    for ps in passes:
        im = ps.images
        lefts = accumulate((_div(_mul(p, p, bits), hk, bits) for (p, _, _), hk in zip(im, h)),
                           lambda u, v: _add(u, v, bits))
        for n, left in enumerate(lefts):
            (p_prev, d_prev, _), (p, d, _) = im[n], im[n + 1]
            right = _div(_sub(_mul(d, p_prev, bits), _mul(d_prev, p, bits), bits), h[n], bits)
            dev = _sub(left, right, bits)
            worst[n] = _max(worst[n], _div((abs(dev[0]), dev[1]), (abs(left[0]), left[1]), bits))
    return tuple(map(_mpf, worst))


def lax_block_check(tbl: RecurrenceTable, M: int) -> mp.mpf:
    """Max scaled entry of (J L - L J - J) over rows 0..M-6, with
    L = 4z*(strictly lower triangle of J^4) + diag(0..M-1).  Rows past M-6
    feel the truncation of J^4 and are excluded."""
    if M < 10:
        raise DomainError(f"M must be >= 10, got {M}")
    if M > tbl.n_max + 1:
        raise DomainError(f"table too small: M={M} needs n_max >= {M - 1}")
    with tbl.workprec():
        J = jacobi_matrix(tbl, M)
        J2 = mat_mul(J, J)
        J4 = mat_mul(J2, J2)
        L = [[mp.mpf(0)] * M for _ in range(M)]
        for i in range(M):
            L[i][i] = mp.mpf(i)
            for j in range(i):
                L[i][j] = 4 * tbl.z * J4[i][j]
        JL = mat_mul(J, L)
        LJ = mat_mul(L, J)
        scale = max(max(abs(v) for v in row) for row in JL) + 1
        worst = mp.mpf(0)
        for i in range(M - 5):
            for j in range(M):
                worst = max(worst, abs(JL[i][j] - LJ[i][j] - J[i][j]))
        return worst / scale
