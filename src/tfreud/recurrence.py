"""Three-term recurrence coefficients for the weight exp(-z*x^4) on (0, inf).

The monic orthogonal family satisfies x*P_n = P_{n+1} + b_n*P_n + a_n*P_{n-1}
with a_0 = 0.  Coefficients are produced from moments (moment_sequence: one
AGM and the four-step recurrence, no Gamma evaluation) by the modified-moment
(Chebyshev) algorithm at a boosted internal precision, with a reserve of
LOSS_BITS_PER_DEGREE bits per degree for the bits the map from moments to
coefficients loses.  The O(n^2) elimination runs on the kernel's integer
images, each step rounded exactly as mpf rounds it at the internal
precision, so it gives the mpf loop's bits; the O(n)
divisions and the guard on the norms run in mpf.  From degree
SPLIT_MIN_DEGREE on, on a process that may use two CPUs, each row is split
at l = n_max + 1 between the caller and one helper forked for that table
alone, which exchange one short message per row over pipes; both halves run
the same row function with the same roundings, so the table has the same
bits on one CPU or two.  Final values are rounded
to the caller's context, which the table keeps: every evaluation on a table
runs at RecurrenceTable.workprec(), whatever mpmath's global precision is.
The table also carries P_n(0), the value at the truncation point x = 0,
from one pass of the kernel's recurrence: the ladder functions, identities
i/ii, the external field and the largest-zero chain (gamma) read only that.

The combinations R_n = a_{n+1} + b_n^2 + a_n and T_n = a_n*(b_n + b_{n-1})
build the band of x^4 P_n = sum_k beta_{n,k} P_k (the fourth power of the
Jacobi matrix).  Reading the structure relation on that band gives the
Laguerre-Freud system as two band identities,

    4z*beta_{n,n} = 2n+1,    4z*(beta_{n+1,n} - beta_{n,n-1}) = b_n,

plus one nonlinear difference identity quadratic in the same data.  R, T,
the band entries and the bracket T_{n+1} + b_n R_n + T_n are functions of
the coefficient sequences (a, b), so they evaluate on a table and on trial
sequences alike.  Forward generation from a seed is supported as a
diagnostic only: it amplifies seed error at a rate of a few bits per step.

Large-n behaviour: a_n ~ sqrt(n/(140z)) and b_n ~ 2*(n/(140z))^(1/4).  The
constants A = 140^(-1/2), B = 2*140^(-1/4) satisfy exact rational relations
in q = A^2 = 1/140, checked here with fractions.  In z, the coefficients obey
a_n(z) = z^(-1/2)*a_n(1), b_n(z) = z^(-1/4)*b_n(1), h_n(z) =
z^(-(2n+1)/4)*h_n(1).
"""
from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, partial

import mpmath as mp

from .kernel import (RESIDUAL_GUARD_BITS, ConvergenceError, DomainError, PrecisionContext,
                     PrecisionExhaustionError, _add, _forked, _image, _mpf, _mul, _neg_images,
                     _ttrr_d2, _two_cpus, positive_finite)
from .moments import moment, moment_sequence

# Reserve for the moment map's precision loss, bits per degree.  Against
# tables built with a 7.0-bit reserve, the map loses 4.20-4.24 bits of the
# internal precision per degree (z = 1/4, 1, 4; n = 128, 160, 256), so 4.5
# keeps 102-138 bits beyond the context there; a reserve of 3.5 leaves the
# top rows of tables past degree ~90 wrong.
LOSS_BITS_PER_DEGREE = 4.5
BASE_GUARD_BITS = 64
# Degree from which chebyshev_coeffs splits each elimination row with a
# forked helper (_splits).  Below it the fork and the two messages per row
# cost more than half of each row saves: at z = 1 and default bits, medians
# of 11 alternating pairs on a 2-core box took 11.3 ms serial and 12.9 ms
# split at n = 40, 17.9 and 17.1 ms at n = 48, 26.6 and 21.2 ms at n = 56
# (BENCH_split_rows.json).
SPLIT_MIN_DEGREE = 48


# ---------------------------------------------------------------------------
# R, T and the x^4 band as functions of the coefficient sequences (a, b)
# ---------------------------------------------------------------------------
# Each runs at its caller's precision.  a_i and T_i read as zero for i < 1
# and R_i for i < 0: a_0 = T_0 = 0 hold anyway, and the negative indices only
# ever appear multiplied by a vanishing factor.

def _a_i(a, i: int):
    """a_i, read as 0 for i < 1."""
    return a[i] if i >= 1 else mp.mpf(0)


def _R_i(a, b, i: int):
    """R_i = a_{i+1} + b_i^2 + a_i, read as 0 for i < 0."""
    return a[i + 1] + b[i] ** 2 + a[i] if i >= 0 else mp.mpf(0)


def _T_i(a, b, i: int):
    """T_i = a_i (b_i + b_{i-1}), read as 0 for i < 1."""
    return a[i] * (b[i] + b[i - 1]) if i >= 1 else mp.mpf(0)


def band_readers(a, b) -> tuple:
    """(A, R, T): a_i, R_i and T_i of these sequences as functions of i."""
    return partial(_a_i, a), partial(_R_i, a, b), partial(_T_i, a, b)


def band_diagonal(a, b, n: int):
    """beta_{n,n}; reads a up to a_{n+2} and b up to b_{n+1}."""
    A, R, T = band_readers(a, b)
    return (A(n + 2) * A(n + 1) + (b[n + 1] + b[n]) * T(n + 1) + R(n) ** 2
            + ((b[n - 1] + b[n]) * T(n) if n >= 1 else mp.mpf(0))
            + A(n) * A(n - 1))


def band_lower(a, b, m: int) -> dict:
    """beta_{m,m-1}..beta_{m,m-4}, negative keys included (they hold exact
    zeros); reads a and b up to index m + 1."""
    A, R, T = band_readers(a, b)
    return {
        m - 1: A(m) * (T(m + 1) + T(m - 1)) + T(m) * (R(m) + R(m - 1)),
        m - 2: A(m) * A(m - 1) * (R(m) + R(m - 2)) + T(m) * T(m - 1),
        m - 3: A(m - 1) * A(m - 2) * T(m) + A(m) * A(m - 1) * T(m - 2),
        m - 4: A(m) * A(m - 1) * A(m - 2) * A(m - 3),
    }


def band_row(a, b, n: int) -> dict:
    """beta_{n,k} for k = max(0, n-4)..n+3, where x^4 P_n = P_{n+4}
    + sum_k beta_{n,k} P_k; reads a and b up to index n + 3."""
    _, R, T = band_readers(a, b)
    row = {
        n + 3: b[n] + b[n + 1] + b[n + 2] + b[n + 3],
        n + 2: R(n + 2) + (b[n + 1] + b[n]) * (b[n + 2] + b[n + 1]) + R(n),
        n + 1: T(n + 2) + (b[n + 1] + b[n]) * (R(n + 1) + R(n)) + T(n),
        n: band_diagonal(a, b, n),
    }
    row.update((k, v) for k, v in band_lower(a, b, n).items() if k >= 0)
    return row


def bracket_i(a, b, n: int):
    """T_{n+1} + b_n R_n + T_n: 4z times it is P_n(0)^2/h_n (identity i)."""
    _, R, T = band_readers(a, b)
    return T(n + 1) + b[n] * R(n) + T(n)


@dataclass(frozen=True)
class RecurrenceTable:
    """a_0..a_{n_max}, b_0..b_{n_max}, h_0..h_{n_max} at a fixed z and at the
    precision of `ctx`; a_0 = 0.  R, T and sigma run at workprec(); at_zero
    holds P_0(0)..P_{n_max}(0), and gamma the chain built from them."""

    z: mp.mpf
    a: tuple
    b: tuple
    h: tuple
    ctx: PrecisionContext

    def __post_init__(self):
        if not (len(self.a) == len(self.b) == len(self.h)):
            raise DomainError("a, b, h must have equal lengths")
        if len(self.a) == 0 or self.a[0] != 0:
            raise DomainError("a_0 = 0 convention violated")

    @property
    def n_max(self) -> int:
        return len(self.b) - 1

    def workprec(self):
        """The working precision of every evaluation on this table."""
        return self.ctx.workprec(RESIDUAL_GUARD_BITS)

    @cached_property
    def at_zero(self) -> tuple:
        """P_0(0)..P_{n_max}(0), read from one pass of the recurrence
        (kernel._ttrr_d2) at x = 0 and ctx.bits + 32 bits, each rounded to
        the context.  Derived on first use, never stored as a field, so a
        table built with dataclasses.replace derives its own."""
        nb, na = _neg_images(self.b, self.a, self.n_max)
        steps = _ttrr_d2(nb, na, self.n_max, (0, 0), self.ctx.bits + 32)
        return tuple(self.ctx.round(_mpf(p)) for p, _, _ in steps)

    @cached_property
    def gamma(self) -> tuple:
        """gamma_1..gamma_{2 n_max - 1} (element i is gamma_{i+1}) at
        workprec(): gamma_{2k+1} = -P_{k+1}(0)/P_k(0) and gamma_{2k} =
        -a_k P_{k-1}(0)/P_k(0); its readers check that they are positive."""
        p0 = self.at_zero
        with self.workprec():
            out = []
            for k in range(self.n_max):
                if k:
                    out.append(-self.a[k] * p0[k - 1] / p0[k])
                out.append(-p0[k + 1] / p0[k])
        return tuple(out)

    def R(self, n: int) -> mp.mpf:
        """R_n = a_{n+1} + b_n^2 + a_n; defined for 0 <= n <= n_max - 1."""
        if n < 0 or n + 1 > self.n_max:
            raise IndexError(f"R_{n} needs a_{n + 1}, table holds 0..{self.n_max}")
        with self.workprec():
            return _R_i(self.a, self.b, n)

    def T(self, n: int) -> mp.mpf:
        """T_n = a_n*(b_n + b_{n-1}); T_0 = 0, so b_{-1} is never read."""
        if n < 0 or n > self.n_max:
            raise IndexError(f"T_{n} outside table range 0..{self.n_max}")
        with self.workprec():
            return _T_i(self.a, self.b, n)

    def sigma(self, n: int) -> mp.mpf:
        """sigma_n = sum_{k<n} b_k: minus the subleading monic coefficient."""
        if n < 0 or n > self.n_max + 1:
            raise IndexError(f"sigma_{n} outside 0..{self.n_max + 1}")
        with self.workprec():
            return mp.fsum(self.b[:n]) if n else mp.mpf(0)


def internal_bits_for(ctx: PrecisionContext, n_max: int) -> int:
    return ctx.bits + math.ceil(LOSS_BITS_PER_DEGREE * n_max) + BASE_GUARD_BITS


def _row(cur, prev, nb, na, lo, hi, bits, top):
    """Entries l = lo..hi-1 of the next elimination row, sigma_{k+1,l} =
    sigma_{k,l+1} + (-b_k) sigma_{k,l} + (-a_k) sigma_{k-1,l}, from the images
    nb = -b_k and na = -a_k and the rows cur = sigma_k, prev = sigma_{k-1}
    (absolute l-indexing), each step rounded at `bits` as the mpf loop rounds
    it; and the larger of `top` and the largest mp.mag among the entries."""
    out = []
    for l in range(lo, hi):
        m, e = u = _add(_add(cur[l + 1], _mul(nb, cur[l], bits), bits),
                        _mul(na, prev[l], bits), bits)
        out.append(u)
        if m and m.bit_length() + e > top:
            top = m.bit_length() + e
    return out, top


def _splits(n_max: int) -> bool:
    """Whether chebyshev_coeffs shares each row of a degree-n_max table with
    a forked helper: from SPLIT_MIN_DEGREE on, where the process may use two
    CPUs (kernel._two_cpus)."""
    return n_max >= SPLIT_MIN_DEGREE and _two_cpus()


def _serve_rows(receive, send, cur: list, lo: int, L: int, bits: int, top: int):
    """The helper's loop: for each (nb, na) received, the entries
    l = lo..L-1-k of row k+1 by _row, and (entry at lo, running top magnitude)
    sent back; it returns at end of file."""
    prev, k = [(0, 0)] * (L + 1), 0
    while (msg := receive()) is not None:
        new = [(0, 0)] * (L + 1)
        new[lo:L - k], top = _row(cur, prev, *msg, lo, L - k, bits, top)
        send((new[lo], top))
        prev, cur, k = cur, new, k + 1


def _upper_rows(cur: list, lo: int, L: int, bits: int, top: int):
    """A helper forked by kernel._forked that runs _serve_rows on the
    entries l >= lo of every row: send((nb, na)) starts a row, receive()
    returns the helper's (entry at lo, top magnitude)."""
    return _forked(lambda receive, send: _serve_rows(receive, send, cur, lo, L, bits, top))


def chebyshev_coeffs(z, n_max: int, ctx: PrecisionContext) -> RecurrenceTable:
    """Recurrence coefficients from the moments mu_0..mu_{2*n_max+1}.

    Runs the modified-moment table sigma_{k,l} = <u, P_k x^l> with two-row
    storage; h_k = sigma_{k,k}, a_{k+1} = h_{k+1}/h_k.  Raises
    PrecisionExhaustionError (with the failing index) when a diagonal entry
    has lost all significant bits, which is the k at which every digit of
    h_k is roundoff.  The internal precision is internal_bits_for(ctx, n_max).
    It runs on the moments 2^((j+1)t) mu_j of the weight at z / 2^(4t), t =
    round(log2(z)/4), and scales a, b, h back by 2^(-2t), 2^(-t) and
    2^(-(2k+1)t): powers of two keep every rounded step exact, and the guard,
    which compares h_{k+1} with the largest moment, holds at extreme z.

    From degree SPLIT_MIN_DEGREE on (see _splits) each row is split at
    l = n_max + 1: this process computes the entries below, one forked
    helper those above, both by _row.  The helper lives for this call only.
    Every entry is rounded as in the serial loop, so the table has the same
    bits either way; if no helper can be forked, this process computes the
    whole row.  RuntimeError or BrokenPipeError if the helper ends early; it
    is killed and reaped whatever ends the call.
    """
    if n_max < 0:
        raise DomainError(f"n_max must be >= 0, got {n_max}")
    ictx = PrecisionContext(max(64, internal_bits_for(ctx, n_max)))
    bits = ictx.bits + 16
    with mp.workprec(bits):
        zv = positive_finite(z, "z")
        L = 2 * n_max + 1
        t = (mp.mag(zv) + 1) // 4          # round(log2(z) / 4) in integers
        mu = [mp.ldexp(m, (j + 1) * t) for j, m in enumerate(moment_sequence(zv, L, ictx))]
        max_mag = max(mp.mag(m) for m in mu)

        a = [mp.mpf(0)]
        b = [mu[1] / mu[0]]
        h = [mu[0]]
        # the rows are integer images with absolute l-indexing; row k+1
        # holds l = k+1 .. L-(k+1).  Only the divisions and the guard on the
        # diagonal entry read mpf values.
        prev = [(0, 0)] * (L + 1)          # sigma_{-1,l}
        cur = [_image(v) for v in mu]      # sigma_{0,l}
        mid = n_max + 1                    # first l of the helper's half
        helper = _upper_rows(cur, mid, L, bits, max_mag) if _splits(n_max) else nullcontext()
        with helper as link:
            send, receive = link or (None, None)
            for k in range(n_max):
                new = [(0, 0)] * (L + 1)
                nb, na = _image(-b[k]), _image(-a[k])
                if send:
                    send((nb, na))
                hi = mid if send else L - k
                new[k + 1:hi], max_mag = _row(cur, prev, nb, na, k + 1, hi, bits, max_mag)
                if send:
                    new[mid], top = receive()
                    max_mag = max(max_mag, top)
                hk1, ck = _mpf(new[k + 1]), _mpf(cur[k])
                if hk1 <= 0 or mp.mag(hk1) < max_mag - ictx.bits + 8:
                    raise PrecisionExhaustionError(
                        f"norm h_{k + 1} lost all significant bits "
                        f"(increase precision beyond {ictx.bits})", k + 1)
                a.append(hk1 / ck)
                b.append(_mpf(new[k + 2]) / hk1 - _mpf(cur[k + 1]) / ck)
                h.append(hk1)
                prev, cur = cur, new
        return RecurrenceTable(ctx.round(zv),
                               tuple(ctx.round(mp.ldexp(v, -2 * t)) for v in a),
                               tuple(ctx.round(mp.ldexp(v, -t)) for v in b),
                               tuple(ctx.round(mp.ldexp(v, -(2 * k + 1) * t))
                                     for k, v in enumerate(h)), ctx)


# ---------------------------------------------------------------------------
# Laguerre-Freud residuals
# ---------------------------------------------------------------------------

def _check_lf_range(tbl: RecurrenceTable, n: int, lo: int):
    if n < lo or n > tbl.n_max - 2:
        raise IndexError(f"n must satisfy {lo} <= n <= {tbl.n_max - 2}, got {n}")


def lf_residual_1(tbl: RecurrenceTable, n: int) -> tuple:
    """4z*beta_{n,n} - (2n+1) and the scale 2n+1 of the right-hand side."""
    _check_lf_range(tbl, n, 0)
    with tbl.workprec():
        return 4 * tbl.z * band_diagonal(tbl.a, tbl.b, n) - (2 * n + 1), mp.mpf(2 * n + 1)


def lf_residual_2(tbl: RecurrenceTable, n: int) -> tuple:
    """4z*(beta_{n+1,n} - beta_{n,n-1}) - b_n and its scale: the larger of
    |b_n| and 4z a_{n+1}|T_{n+2} + T_n|, the leading term of 4z*beta_{n+1,n}."""
    _check_lf_range(tbl, n, 1)
    a, b = tbl.a, tbl.b
    _, _, T = band_readers(a, b)
    with tbl.workprec():
        up, down = band_lower(a, b, n + 1)[n], band_lower(a, b, n)[n - 1]
        scale = max(abs(b[n]), 4 * tbl.z * a[n + 1] * abs(T(n + 2) + T(n)))
        return 4 * tbl.z * (up - down) - b[n], scale


def lf_residual_I(tbl: RecurrenceTable, n: int) -> tuple:
    """Nonlinear difference identity, product form minus squared form:

        a_{n+1} [T_{n+2} + b_{n+1} R_{n+1} + T_{n+1}] [T_{n+1} + b_n R_n + T_n]
        - (a_{n+1} R_{n+1} + b_n T_{n+1} + a_{n+1} a_n - (n+1)/(4z))^2,

    and the sum of the magnitudes of its terms as its scale, the square
    counting the square of its base's term sum (the product form is a
    product of sums of positive terms for this weight)."""
    _check_lf_range(tbl, n, 0)
    a, b = tbl.a, tbl.b
    _, R, T = band_readers(a, b)
    with tbl.workprec():
        lhs = a[n + 1] * bracket_i(a, b, n + 1) * bracket_i(a, b, n)
        base = (a[n + 1] * R(n + 1), b[n] * T(n + 1), a[n + 1] * a[n],
                -mp.mpf(n + 1) / (4 * tbl.z))
        return lhs - sum(base) ** 2, abs(lhs) + sum(map(abs, base)) ** 2


def lf_forward(seed, n_max: int, reference: RecurrenceTable):
    """Generate (a, b) forward from seed = (b_0, a_1, b_1) using the two
    Laguerre-Freud equations as a recursion, at the z and precision of
    `reference`.  Diagnostic only: the recursion is unstable and the result
    is compared elementwise against the moment-route table `reference`.

    Returns (table, divergence_index); divergence_index is the first n where
    the forward value drifts from the reference by more than 1000x the
    verification tolerance, or None if there is no such n.
    """
    if n_max < 2:
        raise DomainError(f"n_max must be >= 2, got {n_max}")
    b0, a1, b1 = seed
    ctx, zv = reference.ctx, reference.z
    with ctx.workprec(32):
        a = [mp.mpf(0), mp.mpf(a1)]
        b = [mp.mpf(b0), mp.mpf(b1)]
        for n in range(n_max - 1):
            if a[n + 1] == 0:
                raise ConvergenceError(f"forward recursion hit a_{n + 1} = 0 at step {n}")
            # a_{n+2} enters beta_{n,n} only through a_{n+2} a_{n+1}, so the
            # placeholder a_{n+2} = 0 leaves the known part of the entry
            a.append(mp.mpf(0))
            a_next = (mp.mpf(2 * n + 1) / (4 * zv) - band_diagonal(a, b, n)) / a[n + 1]
            if a_next <= 0:
                raise ConvergenceError(
                    f"forward recursion produced a_{n + 2} = {mp.nstr(a_next, 8)} <= 0 at step {n}")
            a[n + 2] = a_next
            # b_{n+2} enters beta_{n+1,n} only through a_{n+1} T_{n+2}; the
            # placeholder b_{n+2} = -b_{n+1} makes T_{n+2} = 0
            b.append(-b[n + 1])
            known = band_lower(a, b, n + 1)[n]
            t_next = (b[n] / (4 * zv) + band_lower(a, b, n)[n - 1] - known) / a[n + 1]
            b[n + 2] = t_next / a_next - b[n + 1]

        h = [moment(0, zv, ctx)]
        for i in range(1, n_max + 1):
            h.append(a[i] * h[i - 1])
        tbl = RecurrenceTable(ctx.round(zv),
                              tuple(ctx.round(v) for v in a),
                              tuple(ctx.round(v) for v in b),
                              tuple(ctx.round(v) for v in h), ctx)
        for n in range(n_max + 1):
            tol_a = 1000 * ctx.verify_tol(reference.a[n] if reference.a[n] != 0 else 1)
            tol_b = 1000 * ctx.verify_tol(reference.b[n])
            if abs(tbl.a[n] - reference.a[n]) > tol_a or abs(tbl.b[n] - reference.b[n]) > tol_b:
                return tbl, n
    return tbl, None


# ---------------------------------------------------------------------------
# asymptotics and scaling
# ---------------------------------------------------------------------------

def asymptotic_ratio(tbl: RecurrenceTable, n: int):
    """(a_n / sqrt(n/(140z)), b_n / (2*(n/(140z))^(1/4))); both tend to 1."""
    if n < 1 or n > tbl.n_max:
        raise IndexError(f"n must satisfy 1 <= n <= {tbl.n_max}, got {n}")
    with tbl.workprec():
        root = mp.sqrt(mp.mpf(n) / (140 * tbl.z))
        return tbl.a[n] / root, tbl.b[n] / (2 * mp.sqrt(root))


def asymptotic_constant_residuals() -> dict:
    """Exact rational checks on A = 140^(-1/2), B = 2*140^(-1/4).

    Every relation below is polynomial in q = A^2 = 1/140 once B^2 = 4A is
    used, so Fraction arithmetic proves them exactly (zero residuals).
    """
    q = Fraction(1, 140)
    # with B^2 = 4A: A*B^2 = 4q, B^4 = 16q, (2A+B^2)^2 = 36q, A*B^2*(6A+B^2)^2 = 400q^2
    return {
        "quadratic_full": 2 * q + 8 * (4 * q) + 36 * q - Fraction(1, 2),
        "quadratic_reduced": 3 * q + 6 * (4 * q) + (16 * q) / 2 - Fraction(1, 4),
        "quartic": 400 * q ** 2 - (3 * q + 3 * (4 * q) - Fraction(1, 4)) ** 2,
    }


def scaling_check(tbl_z: RecurrenceTable, tbl_1: RecurrenceTable, n: int):
    """(a_n(z)*z^(1/2)/a_n(1) - 1, b_n(z)*z^(1/4)/b_n(1) - 1)."""
    if n < 0 or n > min(tbl_z.n_max, tbl_1.n_max):
        raise IndexError(f"n outside both tables, got {n}")
    with tbl_z.workprec():
        z = tbl_z.z
        da = (tbl_z.a[n] * mp.sqrt(z) / tbl_1.a[n] - 1) if n >= 1 else mp.mpf(0)
        db = tbl_z.b[n] * z ** mp.mpf("0.25") / tbl_1.b[n] - 1
        return da, db


def h_scaling_check(tbl_z: RecurrenceTable, tbl_1: RecurrenceTable, n: int) -> mp.mpf:
    """Relative residual of h_n(z) = z^(-(2n+1)/4) * h_n(1)."""
    if n < 0 or n > min(tbl_z.n_max, tbl_1.n_max):
        raise IndexError(f"n outside both tables, got {n}")
    with tbl_z.ctx.workprec(32):
        return tbl_z.h[n] * tbl_z.z ** (mp.mpf(2 * n + 1) / 4) / tbl_1.h[n] - 1
