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
  pole at 0) give an independent second-order ODE.  Each is read as a value
  and a slope per sample, by kernel._horner_d and the quotient rule.
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
Only the coefficients (ladder_A, ladder_B, lowering_data) and v' = 4z x^3
run in mpf: past 333 mantissa bits mpmath's cube is a binary power that is
not always correctly rounded, so no image form is sure to give its bits.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

import mpmath as mp

from .kernel import (RESIDUAL_GUARD_BITS, DomainError, PrecisionContext, _add, _cmp, _div,
                     _horner_d, _image, _mpf, _mul, _neg, _neg_images, _sub, _sum, _ttrr_d2)
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

def ladder_A(tbl: RecurrenceTable, n: int) -> tuple:
    """calA_n = 4z(x^2 + b_n x + R_n) + P_n(0)^2/(h_n x): the ascending
    coefficients of its cubic numerator over the denominator x; defined for
    0 <= n <= n_max - 1."""
    if n < 0 or n > tbl.n_max - 1:
        raise IndexError(f"need 0 <= n <= {tbl.n_max - 1}, got {n}")
    with tbl.workprec():
        f = 4 * tbl.z
        return tbl.at_zero[n] ** 2 / tbl.h[n], f * tbl.R(n), f * tbl.b[n], f


def ladder_B(tbl: RecurrenceTable, n: int) -> tuple:
    """calB_n = 4z a_n (x + b_n + b_{n-1}) + P_n(0) P_{n-1}(0)/(h_{n-1} x):
    the ascending coefficients of its quadratic numerator over the
    denominator x; defined for 1 <= n <= n_max - 1."""
    if n < 1 or n > tbl.n_max - 1:
        raise IndexError(f"need 1 <= n <= {tbl.n_max - 1}, got {n}")
    p0 = tbl.at_zero
    with tbl.workprec():
        f = 4 * tbl.z
        return p0[n] * p0[n - 1] / tbl.h[n - 1], f * tbl.T(n), f * tbl.a[n]


def _over_x(cs, x, bits) -> tuple:
    """The images of N(x)/x and its slope (N'(x) - N(x)/x)/x at the image x,
    for the numerator of ascending coefficient images cs."""
    p, d = _horner_d(cs, x, bits)
    v = _div(p, x, bits)
    return v, _div(_sub(d, v, bits), x, bits)


def identity_i_residual(tbl: RecurrenceTable, n: int) -> tuple:
    """4z(T_{n+1} + b_n R_n + T_n) - P_n(0)^2/h_n and, as its scale, the sum
    of the magnitudes of its terms.  a_k and b_k are positive for this
    weight, so each side is a sum of positive terms and its own term sum."""
    if n < 0 or n > tbl.n_max - 1:
        raise IndexError(f"need 0 <= n <= {tbl.n_max - 1}, got {n}")
    with tbl.workprec():
        lhs = 4 * tbl.z * bracket_i(tbl.a, tbl.b, n)
        rhs = tbl.at_zero[n] ** 2 / tbl.h[n]
        return lhs - rhs, abs(lhs) + abs(rhs)


def identity_ii_residual(tbl: RecurrenceTable, n: int) -> tuple:
    """4z(a_{n+1}R_{n+1} - a_n R_{n-1} + b_n(T_{n+1} - T_n))
    - [1 + P_n(0)(P_{n+1}(0) - a_n P_{n-1}(0))/h_n], and the sum of its term
    magnitudes (a product's is the product of its factors') as the scale:
    each side is a difference of terms much larger than itself."""
    if n < 1 or n > tbl.n_max - 2:
        raise IndexError(f"need 1 <= n <= {tbl.n_max - 2}, got {n}")
    p0, a, b = tbl.at_zero, tbl.a, tbl.b
    with tbl.workprec():
        f = 4 * tbl.z
        up, down, t_up, t_dn = a[n + 1] * tbl.R(n + 1), a[n] * tbl.R(n - 1), tbl.T(n + 1), tbl.T(n)
        lhs = f * (up - down + b[n] * (t_up - t_dn))
        p_up, p_dn = p0[n + 1], a[n] * p0[n - 1]
        rhs = 1 + p0[n] * (p_up - p_dn) / tbl.h[n]
        scale = (f * (abs(up) + abs(down) + abs(b[n]) * (abs(t_up) + abs(t_dn)))
                 + 1 + abs(p0[n]) * (abs(p_up) + abs(p_dn)) / tbl.h[n])
        return lhs - rhs, scale


def ladder_residuals(tbl: RecurrenceTable, n_max: int, passes) -> tuple:
    """Scaled max residuals (compat_first, compat_second, ode_eliminated),
    one triple per n = 1..n_max:

        calB_{n+1} + calB_n = (x - b_n) calA_n - v'
        a_{n+1} calA_{n+1} - a_n calA_{n-1} = 1 + (x - b_n)(calB_{n+1} - calB_n)
        P_n'' + S P_n' + Q P_n = 0,  S = -v' - calA_n'/calA_n,
        Q = calB_n' - calB_n calA_n'/calA_n - calB_n(v' + calB_n) + a_n calA_n calA_{n-1}

    (v = z x^4); the ODE eliminates P_{n-1} from the first-order ladder pair
    (d/dx + calB_n) P_n = a_n calA_n P_{n-1}, -(d/dx - calB_n - v') P_{n-1}
    = calA_{n-1} P_n.  The value and slope of calA_0..calA_{n_max+1} and
    calB_1..calB_{n_max+1} (_over_x) and v' are evaluated once per sample
    and read by every degree and identity that needs them.  All three
    compare against verify_tol(1).  calA_n has no zero on (0, inf); the pole
    x = 0 is refused.  y, y', y'' are degree n of the passes (each to degree
    >= n_max), which keeps the ODE residual floor near unit roundoff."""
    if n_max < 1 or n_max > tbl.n_max - 2:
        raise IndexError(f"need 1 <= n_max <= {tbl.n_max - 2}, got {n_max}")
    A = [tuple(map(_image, ladder_A(tbl, k))) for k in range(n_max + 2)]
    B = [tuple(map(_image, ladder_B(tbl, k))) for k in range(1, n_max + 2)]
    bits = tbl.ctx.bits + RESIDUAL_GUARD_BITS
    worst = [[(0, 0)] * 3 for _ in range(n_max)]
    with tbl.workprec():
        vps = [_image(4 * tbl.z * ps.x ** 3) for ps in passes]
    for ps, vp in zip(passes, vps):
        if ps.x == 0:
            raise DomainError("sample grid touches the pole at x = 0")
        x = _image(ps.x)
        vA = [_over_x(cs, x, bits) for cs in A]
        vB = [None] + [_over_x(cs, x, bits) for cs in B]
        for n in range(1, n_max + 1):
            an, bn = _image(tbl.a[n]), _image(tbl.b[n])
            (A_n, dA_n), (B_n, dB_n), B_up = vA[n], vB[n], vB[n + 1][0]
            xb = _sub(x, bn, bits)
            t1 = (B_up, B_n, _mul(xb, A_n, bits), vp)
            t2 = (_mul(_image(tbl.a[n + 1]), vA[n + 1][0], bits),
                  _mul(an, vA[n - 1][0], bits), _mul(xb, _sub(B_up, B_n, bits), bits))
            y, y1, y2 = ps.images[n]
            logd = _div(dA_n, A_n, bits)
            Q = _sum((dB_n, _neg(_mul(B_n, logd, bits)),
                      _neg(_mul(B_n, _add(vp, B_n, bits), bits)),
                      _mul(_mul(an, A_n, bits), vA[n - 1][0], bits)), bits)
            t3 = (y2, _mul(_sub(_neg(vp), logd, bits), y1, bits), _mul(Q, y, bits))
            sums = (_sum((B_up, B_n, _neg(t1[2]), vp), bits),
                    _sum((t2[0], _neg(t2[1]), (-1, 0), _neg(t2[2])), bits), _sum(t3, bits))
            worst[n - 1] = [_max(w, _scaled(r, t, bits))
                            for w, r, t in zip(worst[n - 1], sums, (t1, t2, t3))]
    return tuple(tuple(map(_mpf, w)) for w in worst)


# ---------------------------------------------------------------------------
# lowering / raising operators and the composed second-order ODE
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LoweringData:
    """x P'_{n+1} + D_n P_{n+1} = C_n P_n: the ascending coefficients of C_n
    and D_n; the lowering operator reads A_n = x/C_n and B_n = D_n/C_n."""

    n: int
    C: tuple
    D: tuple


def lowering_data(tbl: RecurrenceTable, n: int) -> LoweringData:
    """C_n (cubic) and D_n (quadratic) by eliminating P_{n-1}, P_{n-2},
    P_{n-3} from the structure relation c0 P_n + c1 P_{n-1} + c2 P_{n-2}
    + c3 P_{n-3} through the recurrence:

        P_{n-1} = (x - b_n)/a_n P_n - P_{n+1}/a_n
        P_{n-2} = e/(a_n a_{n-1}) P_n - (x - b_{n-1})/(a_n a_{n-1}) P_{n+1}
        P_{n-3} = f/(a_n a_{n-1} a_{n-2}) P_n - g/(a_n a_{n-1} a_{n-2}) P_{n+1}

    with e = (x - b_{n-1})(x - b_n) - a_n, f = (x - b_{n-2}) e - a_{n-1}(x - b_n)
    and g = (x - b_{n-2})(x - b_{n-1}) - a_{n-1}; C_n collects the P_n parts
    plus c0, D_n the P_{n+1} parts (sign flipped) minus n + 1.

    At n = 2 there is no P_{n-3} term (its coefficient c3 contains the
    factor a_0 = 0), so C_2 is quadratic and D_2 linear; the cubic/quadratic
    degrees hold from n = 3 on."""
    if n < 2 or n > tbl.n_max - 2:
        raise IndexError(f"need 2 <= n <= {tbl.n_max - 2}, got {n}")
    c0, c1, c2, c3 = structure_coeffs(tbl, n)
    a, b = tbl.a, tbl.b
    with tbl.workprec():
        ia, a2 = 1 / a[n], a[n] * a[n - 1]
        i2, k2 = 1 / a2, c2 / a2
        e = (b[n - 1] * b[n] - a[n], -b[n - 1] - b[n])
        C = [c0 + -b[n] * ia * c1 + e[0] * i2 * c2, ia * c1 + e[1] * i2 * c2, i2 * c2]
        D = [c1 / a[n] - (n + 1) + -b[n - 1] * k2, k2]
        if n >= 3:
            a3 = a2 * a[n - 2]
            i3, k3 = 1 / a3, c3 / a3
            f = (-b[n - 2] * e[0] + b[n] * a[n - 1], -b[n - 2] * e[1] + e[0] - a[n - 1],
                 -b[n - 2] + e[1])
            g = (b[n - 2] * b[n - 1] - a[n - 1], -b[n - 2] - b[n - 1])
            C = [C[k] + f[k] * i3 * c3 for k in range(3)] + [i3 * c3]
            D = [D[0] + g[0] * k3, D[1] + g[1] * k3, k3]
        return LoweringData(n, tuple(C), tuple(D))


def _lowering_at(C, D, x, bits) -> tuple:
    """(C(x), D(x), A, B, A', B') at the image x from the coefficient images
    C, D: A = x/C, B = D/C, A' = (1 - A C')/C and B' = (D' - B C')/C."""
    (c, dc), (d, dd) = _horner_d(C, x, bits), _horner_d(D, x, bits)
    A, B = _div(x, c, bits), _div(d, c, bits)
    return (c, d, A, B, _div(_sub((1, 0), _mul(A, dc, bits), bits), c, bits),
            _div(_sub(dd, _mul(B, dc, bits), bits), c, bits))


def lowering_residuals(tbl: RecurrenceTable, n_max: int, passes) -> tuple:
    """Scaled max residuals (lowering, raising, ode_composed) over the passes
    (each to degree >= n_max + 2): lowering and raising one per n = 2..n_max,

        x P'_{n+1} + D_n P_{n+1} - C_n P_n
        -a_{n+1}[x P'_{n+1} + D_n P_{n+1}] + (x - b_{n+1}) C_n P_{n+1} - C_n P_{n+2},

    and the composed second-order operator one per n = 3..n_max,

        a_n A_n A_{n-1} y'' + [A_n(a_n B_{n-1} - x + b_n) + a_n A_{n-1}(A_n' + B_n)] y'
        + [a_n B_n' A_{n-1} + B_n(a_n B_{n-1} - x + b_n) + 1] y,   y = P_{n+1},

    with A_k = x/C_k and B_k = D_k/C_k (_lowering_at).  Each C_k and D_k is
    evaluated with its slope once per sample, for all three identities and
    both degrees k and k + 1 of the composed operator."""
    if n_max < 2 or n_max > tbl.n_max - 2:
        raise IndexError(f"need 2 <= n_max <= {tbl.n_max - 2}, got {n_max}")
    polys = [tuple(tuple(map(_image, cs)) for cs in (data.C, data.D))
             for data in (lowering_data(tbl, n) for n in range(2, n_max + 1))]
    a, b = (tuple(map(_image, v[:n_max + 2])) for v in (tbl.a, tbl.b))
    bits = tbl.ctx.bits + RESIDUAL_GUARD_BITS
    low, up, composed = [(0, 0)] * (n_max - 1), [(0, 0)] * (n_max - 1), [(0, 0)] * (n_max - 2)
    for ps in passes:
        x, prev = _image(ps.x), None
        for i, n in enumerate(range(2, n_max + 1)):
            C, D, A, B, dA, dB = _lowering_at(*polys[i], x, bits)
            y, y1, y2 = ps.images[n + 1]
            t1 = (_mul(x, y1, bits), _mul(D, y, bits), _mul(C, ps.images[n][0], bits))
            t2 = (_mul(a[n + 1], t1[0], bits), _mul(a[n + 1], t1[1], bits),
                  _mul(_mul(_sub(x, b[n + 1], bits), C, bits), y, bits),
                  _mul(C, ps.images[n + 2][0], bits))
            low[i] = _max(low[i], _scaled(_sum((t1[0], t1[1], _neg(t1[2])), bits), t1, bits))
            up[i] = _max(up[i], _scaled(_sum((t2[2], *map(_neg, t2[:2] + t2[3:])), bits),
                                        t2, bits))
            if prev:
                Ap, Bp = prev
                mid = _sum((_mul(a[n], Bp, bits), _neg(x), b[n]), bits)
                c2 = _mul(_mul(a[n], A, bits), Ap, bits)
                c1 = _add(_mul(A, mid, bits), _mul(_mul(a[n], Ap, bits), _add(dA, B, bits), bits),
                          bits)
                c0 = _sum((_mul(_mul(a[n], dB, bits), Ap, bits), _mul(B, mid, bits), (1, 0)),
                          bits)
                terms = (_mul(c2, y2, bits), _mul(c1, y1, bits), _mul(c0, y, bits))
                composed[i - 1] = _max(composed[i - 1], _scaled(_sum(terms, bits), terms, bits))
            prev = A, B
    return tuple(map(_mpf, low)), tuple(map(_mpf, up)), tuple(map(_mpf, composed))


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
