from __future__ import annotations

import functools
import os
import random
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import assert_no_child, horner, horner_d, poly_add, poly_diff, poly_mul, poly_sub, \
    poly_trim, quotient_slope
from mpmath.libmp import from_man_exp, mpf_add, mpf_cmp, mpf_div, mpf_mul, round_nearest

from tfreud import kernel, recurrence, zeros as zeros_module
from tfreud.kernel import (
    RESIDUAL_GUARD_BITS,
    ConvergenceError,
    DomainError,
    PrecisionContext,
    default_bits,
    tridiag_eigenvalues,
)
from tfreud.recurrence import chebyshev_coeffs


def test_context_rejects_low_bits():
    with pytest.raises(DomainError):
        PrecisionContext(32)


def test_context_eps_and_tol():
    ctx = PrecisionContext(64)
    assert ctx.eps == mp.mpf(2) ** -63
    assert ctx.verify_tol(1) == mp.mpf(2) ** (-63 + 12)
    assert ctx.verify_tol(8) == mp.mpf(2) ** (-60 + 12)


def test_default_bits_policy():
    assert default_bits(0) == 128
    assert default_bits(10) == 288
    assert default_bits(48) == 896


def test_round_is_idempotent():
    ctx = PrecisionContext(64)
    with mp.workprec(300):
        x = mp.mpf(1) / 3
    r = ctx.round(x)
    assert ctx.round(r) == r
    assert r != x


# --- polynomial helpers -------------------------------------------------------
# The dense mpf polynomials are the tests' own symbolic references (conftest);
# the library reads a polynomial only as a value and a slope (_horner_d).

def test_poly_basic_ops():
    p = [mp.mpf(1), mp.mpf(2)]          # 1 + 2x
    q = [mp.mpf(0), mp.mpf(0), mp.mpf(3)]  # 3x^2
    assert poly_add(p, q) == [1, 2, 3]
    assert poly_sub(poly_add(p, q), q) == [1, 2]
    assert poly_mul(p, q) == [0, 0, 3, 6]
    assert poly_diff([mp.mpf(5), mp.mpf(0), mp.mpf(7)]) == [0, 14]
    assert poly_trim([mp.mpf(1), mp.mpf(0), mp.mpf(0)]) == [1]
    assert kernel._horner_d([(1, 0), (2, 0), (3, 0)], (2, 0), 64) == ((17, 0), (14, 0))


coeff = st.integers(min_value=-50, max_value=50)
small_poly = st.lists(coeff, min_size=1, max_size=6)


@given(small_poly, small_poly, st.integers(min_value=-5, max_value=5))
@settings(max_examples=60, deadline=None)
def test_poly_mul_matches_pointwise(p, q, x):
    pm = [mp.mpf(c) for c in p]
    qm = [mp.mpf(c) for c in q]
    lhs = horner(poly_mul(pm, qm), mp.mpf(x))
    rhs = horner(pm, mp.mpf(x)) * horner(qm, mp.mpf(x))
    assert lhs == rhs


@given(small_poly, small_poly, st.integers(min_value=-5, max_value=5))
@settings(max_examples=60, deadline=None)
def test_poly_product_rule(p, q, x):
    pm = [mp.mpf(c) for c in p]
    qm = [mp.mpf(c) for c in q]
    lhs = poly_diff(poly_mul(pm, qm))
    rhs = poly_add(poly_mul(poly_diff(pm), qm), poly_mul(pm, poly_diff(qm)))
    assert horner(lhs, mp.mpf(x)) == horner(rhs, mp.mpf(x))


def test_rational_fn_eval_and_derivative():
    # the symbolic quotient-rule reference on f = x / (1 + x^2), f' = (1 -
    # x^2) / (1 + x^2)^2, at 1200 bits, the tests' own precision
    x = mp.mpf(3) / 7
    expect = (1 - x * x) / (1 + x * x) ** 2
    got = quotient_slope([mp.mpf(0), mp.mpf(1)], [mp.mpf(1), mp.mpf(0), mp.mpf(1)], x)
    assert abs(got - expect) <= mp.mpf(2) ** -1100


@pytest.mark.parametrize("bits", [64, 300, 1500])
def test_horner_d_constant_and_zero(bits):
    # a constant has slope 0 and is only rounded; at x = 0 the value is the
    # constant coefficient and the slope the linear one, both rounded
    with mp.workprec(bits + 40):
        cs = [mp.mpf(1) / 3, -mp.mpf(2) / 7, mp.mpf(5) / 11]
    im = [kernel._image(c) for c in cs]
    for poly, x in (([im[0]], (3, -1)), (im, (0, 0)), ([im[2]], (0, 0))):
        p, d = kernel._horner_d(poly, x, bits)
        with mp.workprec(bits):
            want = horner_d([kernel._mpf(c) for c in poly], kernel._mpf(x))
        assert (_raw(p), _raw(d)) == (want[0]._mpf_, want[1]._mpf_)
    with mp.workprec(bits):
        assert kernel._mpf(kernel._horner_d(im, (0, 0), bits)[1]) == +cs[1]
        assert kernel._horner_d([im[0]], (3, -1), bits)[1] == (0, 0)


@st.composite
def _polynomials(draw):
    """(bits, coefficients, x): mixed-sign mpf coefficients of degree 0..6
    and x, all of at most `bits` bits; x is anything, 0, or within a few
    units of its last bit of a root r of the polynomial, which is then
    (x - r) q(x) expanded and rounded, so Horner cancels heavily there."""
    bits = draw(st.integers(64, 2400))
    deg = draw(st.integers(0, 6))
    frac = st.builds(lambda p, q: mp.mpf(p) / q, st.integers(-10 ** 6, 10 ** 6),
                     st.integers(1, 999))
    kind = draw(st.sampled_from(["any", "zero", "root"] if deg else ["any", "zero"]))
    with mp.workprec(bits):
        cs = [+c for c in draw(st.lists(frac, min_size=deg + 1, max_size=deg + 1))]
        x = +draw(frac)
        if kind == "zero":
            x = mp.mpf(0)
        elif kind == "root":
            cs = poly_mul([-x, mp.mpf(1)], cs[:deg])
            x += draw(st.integers(-4, 4)) * mp.mpf(2) ** ((mp.mag(x) if x else 0) - bits)
    return bits, cs, x


@given(_polynomials())
@settings(max_examples=300, deadline=None)
def test_image_horner_d_matches_mpf_horner(case):
    bits, cs, x = case
    with mp.workprec(bits):
        want = horner_d(cs, x)
    p, d = kernel._horner_d([kernel._image(c) for c in cs], kernel._image(x), bits)
    assert (_raw(p), _raw(d)) == (want[0]._mpf_, want[1]._mpf_)


# --- tridiagonal eigenvalues --------------------------------------------------

def test_tridiag_two_by_two():
    ctx = PrecisionContext(128)
    ev = tridiag_eigenvalues([mp.mpf(0), mp.mpf(0)], [mp.mpf(1)], ctx)
    assert abs(ev[0] + 1) <= ctx.verify_tol(1)
    assert abs(ev[1] - 1) <= ctx.verify_tol(1)


@pytest.mark.parametrize("n", [3, 5, 8, 12])
def test_tridiag_chebyshev_closed_form(n):
    # diag 0, offdiag 1/2 (products 1/4): eigenvalues are cos(k*pi/(n+1)),
    # k = n..1 ascending
    ctx = PrecisionContext(192)
    ev = tridiag_eigenvalues([mp.mpf(0)] * n, [mp.mpf(1) / 4] * (n - 1), ctx)
    with mp.workprec(260):
        ref = sorted(mp.cos(mp.pi * k / (n + 1)) for k in range(1, n + 1))
    for got, want in zip(ev, ref):
        assert abs(got - want) <= ctx.verify_tol(1)


def test_tridiag_charpoly_roots_oracle():
    # random-looking fixed matrix, cross-checked against mp.polyroots on the
    # expanded characteristic polynomial
    ctx = PrecisionContext(128)
    diag = [mp.mpf(v) for v in ("0.3", "-1.2", "2.5", "0.9", "-0.4")]
    off = [mp.mpf(v) for v in ("0.7", "1.1", "0.2", "0.6")]
    ev = tridiag_eigenvalues(diag, [e ** 2 for e in off], ctx)
    with mp.workprec(256):
        # det(xI - J) by the minor recurrence, coefficients in x
        pm1 = [mp.mpf(1)]
        p = [-diag[0], mp.mpf(1)]
        for i in range(1, 5):
            t = poly_mul([-diag[i], mp.mpf(1)], p)
            s = [off[i - 1] ** 2 * c for c in pm1]
            p, pm1 = poly_sub(t, s), p
        roots = sorted(mp.mpf(r.real) for r in mp.polyroots(list(reversed(p)), maxsteps=200))
    for got, want in zip(ev, roots):
        assert abs(got - want) <= mp.mpf(2) ** -100


def test_tridiag_rejects_bad_offdiag():
    ctx = PrecisionContext(64)
    with pytest.raises(DomainError):
        tridiag_eigenvalues([mp.mpf(0)] * 2, [mp.mpf(0)], ctx)
    with pytest.raises(DomainError):
        tridiag_eigenvalues([mp.mpf(0)] * 3, [mp.mpf(1)], ctx)


def test_tridiag_single_entry():
    ctx = PrecisionContext(64)
    assert tridiag_eigenvalues([mp.mpf(7)], [], ctx) == [7]


@given(st.lists(st.integers(min_value=-4, max_value=4), min_size=2, max_size=6),
       st.data())
@settings(max_examples=25, deadline=None)
def test_tridiag_trace_invariant(d, data):
    n = len(d)
    e = data.draw(st.lists(st.integers(min_value=1, max_value=3),
                           min_size=n - 1, max_size=n - 1))
    ctx = PrecisionContext(128)
    ev = tridiag_eigenvalues([mp.mpf(v) for v in d], [mp.mpf(v) for v in e], ctx)
    assert abs(sum(ev) - sum(d)) <= ctx.verify_tol(sum(abs(v) for v in d) + n)
    # strictly positive offdiagonal forces simple eigenvalues
    for lo, hi in zip(ev, ev[1:]):
        assert lo < hi


def _eigsy(diag, off2):
    """Reference eigenvalues of the same matrix by mpmath's dense solver."""
    with mp.workprec(400):
        n = len(diag)
        A = mp.matrix(n, n)
        for i in range(n):
            A[i, i] = diag[i]
        for i in range(n - 1):
            A[i, i + 1] = A[i + 1, i] = mp.sqrt(off2[i])
        return sorted(mp.eigsy(A, eigvals_only=True))


@pytest.mark.parametrize("diag, off2", [
    # two eigenvalues 1e-12 apart, 2^-24 of the spread being about 3e-7
    ([mp.mpf(0), mp.mpf("1e-12"), mp.mpf(5)], [mp.mpf("1e-40")] * 2),
    # Wilkinson's W21+ negated: its two smallest eigenvalues are 7e-14 apart
    ([-mp.mpf(abs(10 - i)) for i in range(21)], [mp.mpf(1)] * 20),
], ids=["decoupled", "wilkinson"])
def test_tridiag_clustered_eigenvalues(diag, off2):
    # a bracket of fixed width 2^-24 of the spread holds both eigenvalues of
    # the cluster, so Newton could find one of them twice; bisection must
    # go on until each bracket isolates its eigenvalue
    ctx = PrecisionContext(128)
    ev = tridiag_eigenvalues(diag, off2, ctx)
    assert all(lo < hi for lo, hi in zip(ev, ev[1:]))
    for got, want in zip(ev, _eigsy(diag, off2)):
        assert abs(got - want) <= ctx.verify_tol(1)


def test_tridiag_inseparable_eigenvalues_raise():
    # at 64 + 32 working bits no point lies strictly between 1 and 1 + 2^-95,
    # and the two eigenvalues sit within 1e-51 of those ends
    ctx = PrecisionContext(64)
    with mp.workprec(128):
        diag = [mp.mpf(1), 1 + mp.mpf(2) ** -95]
    with pytest.raises(ConvergenceError):
        tridiag_eigenvalues(diag, [mp.mpf("1e-80")], ctx)


def _chebyshev(n):
    """diag 0, off2 1/4: eigenvalues cos(k pi/(n+1)), ascending."""
    with mp.workprec(260):
        ref = sorted(mp.cos(mp.pi * k / (n + 1)) for k in range(1, n + 1))
    return [mp.mpf(0)] * n, [mp.mpf(1) / 4] * (n - 1), ref


@pytest.mark.parametrize("n", [2, 5, 8])
def test_tridiag_interlacing_cuts(n, monkeypatch):
    # the zeros of degree n-1 cut the brackets of degree n: no bisection
    ctx = PrecisionContext(192)
    diag, off2, ref = _chebyshev(n)
    cuts = tridiag_eigenvalues(diag[:-1], off2[:-1], ctx)
    plain = tridiag_eigenvalues(diag, off2, ctx)
    monkeypatch.setattr(kernel, "_separators", None)
    ev = tridiag_eigenvalues(diag, off2, ctx, cuts=cuts)
    assert [v._mpf_ for v in ev] == [v._mpf_ for v in plain]
    for got, want in zip(ev, ref):
        assert abs(got - want) <= ctx.verify_tol(1)


def test_tridiag_cuts_that_do_not_alternate_fall_back_to_sturm(monkeypatch):
    # move the first cut past the second eigenvalue: the first bracket holds
    # two eigenvalues and the second none, so P_n does not alternate in sign
    # across the cuts and the Sturm route must solve the degree
    ctx = PrecisionContext(192)
    diag, off2, _ = _chebyshev(6)
    plain = tridiag_eigenvalues(diag, off2, ctx)
    cuts = tridiag_eigenvalues(diag[:-1], off2[:-1], ctx)
    bad = [(plain[1] + cuts[1]) / 2] + cuts[1:]
    counts = []
    real = kernel._separators
    monkeypatch.setattr(kernel, "_separators", lambda *a: counts.append(1) or real(*a))
    ev = tridiag_eigenvalues(diag, off2, ctx, cuts=bad)
    assert counts
    assert [v._mpf_ for v in ev] == [v._mpf_ for v in plain]


def test_tridiag_rejects_bad_cuts():
    ctx = PrecisionContext(64)
    with pytest.raises(DomainError):
        tridiag_eigenvalues([mp.mpf(0)] * 3, [mp.mpf(1)] * 2, ctx, cuts=[mp.mpf(0)])


def _midpoint_seeds(monkeypatch):
    """Wrap kernel._seed; the returned list records, per zero, whether the
    polish started from the midpoint of its bracket."""
    real, mids = kernel._seed, []

    def seed(fb, fa, n, lo, hi, bits):
        x = real(fb, fa, n, lo, hi, bits)
        mids.append(kernel._cmp(x, kernel._mid(lo, hi, bits)) == 0)
        return x

    monkeypatch.setattr(kernel, "_seed", seed)
    return mids


def test_float_seed_falls_back_beyond_float_range(monkeypatch):
    # entries past 2^1024 become inf in binary64, so every polish starts at
    # its midpoint, and scaling by a power of two scales the eigenvalues
    ctx = PrecisionContext(128)
    diag, off2, _ = _chebyshev(7)
    diag = [v + k for k, v in enumerate(diag)]
    plain = tridiag_eigenvalues(diag, off2, ctx)
    mids = _midpoint_seeds(monkeypatch)
    with mp.workprec(256):
        s = mp.mpf(2) ** 1100
        big = tridiag_eigenvalues([v * s for v in diag], [v * s * s for v in off2], ctx)
    assert mids and all(mids)
    for got, want in zip(big, plain):
        assert abs(got - want * s) <= ctx.verify_tol(s)


def test_float_seed_falls_back_when_p_n_overflows(monkeypatch):
    # diagonal near 2^600 and off-diagonal products below 2^1024 are finite
    # in binary64, but P_n at x near 2^600 is not; cross-checked against
    # mp.polyroots on the characteristic polynomial in x/2^600
    ctx = PrecisionContext(128)
    with mp.workprec(256):
        s = mp.mpf(2) ** 600
        unit = [mp.mpf(v) for v in ("0.3", "-1.2", "2.5", "0.9", "-0.4")]
        off = [mp.mpf(v) for v in ("0.7", "1.1", "0.2", "0.6")]
        diag = [v * s for v in unit]
        off2 = [(v * 2 ** 500) ** 2 for v in off]
    mids = _midpoint_seeds(monkeypatch)
    ev = tridiag_eigenvalues(diag, off2, ctx)
    assert mids and all(mids)
    with mp.workprec(256):
        # det(y I - J/2^600) by the minor recurrence, coefficients in y
        pm1 = [mp.mpf(1)]
        p = [-unit[0], mp.mpf(1)]
        for i in range(1, 5):
            t = poly_mul([-unit[i], mp.mpf(1)], p)
            u = [off2[i - 1] / s ** 2 * c for c in pm1]
            p, pm1 = poly_sub(t, u), p
        roots = sorted(mp.mpf(r.real) * s for r in mp.polyroots(list(reversed(p)), maxsteps=200))
    for got, want in zip(ev, roots):
        assert abs(got - want) <= ctx.verify_tol(s)


@pytest.mark.parametrize("centred", [False, True])
@pytest.mark.parametrize("n", range(3, 12))
def test_tridiag_midpoint_on_an_eigenvalue(n, centred, monkeypatch):
    # diag 0..n-1 with off-diagonal 1/2 has, for odd n, the eigenvalue
    # (n-1)/2 at the midpoint of its Gershgorin interval; that point cuts
    # nothing, and the cut it missed lies on whichever side its Sturm count
    # puts it.  Centred on 0, an LDL pivot count miscounted the points
    # beside it down to 0 itself, and bisection beside a miscount must stay
    # a single path (about `work` steps each way), not fan out toward 0.
    # Every pass of _sturm counts, the polish's sign reads too.
    ctx = PrecisionContext(256)
    shift = mp.mpf(n - 1) / 2 if centred else 0
    diag, off2 = [mp.mpf(k) - shift for k in range(n)], [mp.mpf(1) / 4] * (n - 1)
    real, counts = kernel._sturm, []
    monkeypatch.setattr(kernel, "_sturm", lambda *a: counts.append(1) or real(*a))
    ev = tridiag_eigenvalues(diag, off2, ctx)
    assert len(counts) <= 4 * (ctx.bits + 32)
    if n % 2:
        assert ev[n // 2] == mp.mpf(n - 1) / 2 - shift
    for got, want in zip(ev, _eigsy(diag, off2)):
        assert abs(got - want) <= ctx.verify_tol(n)


# --- integer images: every operation rounded as mpmath rounds it ------------

IMAGE_BITS = (53, 288, 416, 1184, 3328)


def _raw(u):
    """The image u = (m, e) as mpmath's raw (sign, man, exp, bc), exactly."""
    return from_man_exp(*u)


@given(st.sampled_from(IMAGE_BITS).flatmap(lambda bits: st.tuples(
    st.just(bits), st.integers(-(1 << 3 * bits), 1 << 3 * bits),
    st.integers(-4 * bits, 4 * bits))))
@settings(max_examples=200, deadline=None)
def test_round_matches_mpmath_normalize(case):
    bits, m, e = case
    assert _raw(kernel._round(m, e, bits)) == from_man_exp(m, e, bits, round_nearest)


@st.composite
def _image_pairs(draw):
    """(bits, u, v): two images of at most `bits` bits, as the operands of an
    mpf operation at `bits` are, with exponent gaps near 0, around the
    bits + 4 beyond which mpmath's mpf_add only perturbs the larger addend,
    and anywhere up to 4 bits."""
    bits = draw(st.sampled_from(IMAGE_BITS))
    mant = st.integers(-(1 << bits) + 1, (1 << bits) - 1)
    e = draw(st.integers(-4 * bits, 4 * bits))
    gap = draw(st.one_of(st.integers(-8, 8), st.integers(bits - 8, bits + 120),
                         st.integers(-4 * bits, 4 * bits)))
    return bits, (draw(mant), e), (draw(mant), e - gap)


@given(_image_pairs())
@settings(max_examples=400, deadline=None)
def test_image_product_and_sum_match_mpmath(case):
    bits, u, v = case
    assert _raw(kernel._mul(u, v, bits)) == mpf_mul(_raw(u), _raw(v), bits, round_nearest)
    assert _raw(kernel._add(u, v, bits)) == mpf_add(_raw(u), _raw(v), bits, round_nearest)


def _exact_sum(u, v, bits):
    """u + v summed exactly in Python ints, then rounded by mpmath."""
    e = min(u[1], v[1])
    return from_man_exp((u[0] << (u[1] - e)) + (v[0] << (v[1] - e)), e, bits, round_nearest)


@pytest.mark.parametrize("bits", IMAGE_BITS)
def test_image_arithmetic_edge_cases(bits):
    top, full = 1 << (bits - 1), (1 << bits) - 1
    sums = {}
    for sign in (1, -1):
        # (top + j) * 2 + 1 lies halfway between two neighbours at `bits`:
        # even j rounds down to (top + j) * 2, odd j up to (top + j + 1) * 2
        sums[f"tie-down{sign}"] = (((top + 2) * sign, 1), (sign, 0), ((top + 2) * sign, 1))
        sums[f"tie-up{sign}"] = (((top + 3) * sign, 1), (sign, 0), ((top + 4) * sign, 1))
        # the round-up carries into the next power of two
        sums[f"carry{sign}"] = ((full * sign, 1), (sign, 0), (sign, bits + 1))
        # a zero addend, and a sum that cancels to zero
        sums[f"zero{sign}"] = (((top + 1) * sign, -7), (0, 5), ((top + 1) * sign, -7))
        sums[f"cancel{sign}"] = (((top + 1) * sign, 3), (-(top + 1) * sign, 3), (0, 0))
    for name, (u, v, value) in sums.items():
        got = _raw(kernel._add(u, v, bits))
        assert got == mpf_add(_raw(u), _raw(v), bits, round_nearest) == _exact_sum(u, v, bits)
        assert got == _raw(value), name
    # products: one that carries into the next power of two, zero operands
    # and mixed signs
    for u, v in [((full, 0), (full + 2, 0)), ((-full, 3), (full + 2, -9)),
                 ((0, 4), (-full, 2)), ((top + 1, 0), (0, -3)), ((-top - 5, 1), (-top - 7, 2))]:
        assert _raw(kernel._mul(u, v, bits)) == mpf_mul(_raw(u), _raw(v), bits, round_nearest)
    assert _raw(kernel._mul((full, 0), (full + 2, 0), bits)) == _raw((1, 2 * bits))


@pytest.mark.parametrize("bits", IMAGE_BITS)
def test_image_sum_of_far_apart_addends(bits):
    # the smaller addend lies below 2^-far units of the larger one's lowest
    # bit.  Past far = 4, mpmath's mpf_add keeps only its sign once the
    # exponents are also 100 apart; past far = bits, so does the image sum.
    # Both agree with the exactly rounded sum, also where the sum falls
    # below a power of two.
    top, full = 1 << (bits - 1), (1 << bits) - 1
    for far in (3, 4, 5, 6, bits - 1, bits, bits + 1, bits + 2, 2 * bits + 7, 10 ** 4):
        for big in ((top + 1, 0), (top, 0), (full, 0), (-top, 0), (-full, 0), (3, 0), (-1, 0)):
            for small in (1, -1, full, -full, top, 5):
                v = (small, -far - small.bit_length())
                got = _raw(kernel._add(big, v, bits))
                assert got == mpf_add(_raw(big), _raw(v), bits, round_nearest)
                assert got == _raw(kernel._add(v, big, bits)) == _exact_sum(big, v, bits)


def _ttrr_d2_mpf(b, a, n, x):
    """The recurrence loop of kernel._ttrr_d2 in mpf at mpmath's global
    precision: the oracle for the loop on integer images."""
    p_prev, p = mp.mpf(0), mp.mpf(1)
    d_prev, d = mp.mpf(0), mp.mpf(0)
    s_prev, s = mp.mpf(0), mp.mpf(0)
    for k in range(n):
        w = x - b[k]
        ak = a[k]
        p, p_prev = w * p - ak * p_prev, p
        d, d_prev = p_prev + w * d - ak * d_prev, d
        s, s_prev = 2 * d_prev + w * s - ak * s_prev, s
    return p, d, s


def _sturm_mpf(b, a, n, x):
    """The loop of kernel._sturm in mpf, as _ttrr_d2_mpf: (count, P_n(x))."""
    count, up = 0, True
    p_prev, p = mp.mpf(0), mp.mpf(1)
    for k in range(n):
        p, p_prev = (x - b[k]) * p - a[k] * p_prev, p
        if p and (p > 0) != up:
            up = not up
        else:
            count += 1
    return count, p


@functools.cache
def _oracle_table(zq, n):
    return chebyshev_coeffs(mp.mpf(zq), n, PrecisionContext(default_bits(n)))


@pytest.mark.parametrize("n", [1, 8, 16, 64, 128])
@pytest.mark.parametrize("zq", ["0.25", "1", "4"])
def test_ttrr_matches_the_mpf_loop(zq, n):
    # at the polish precision and at the table's evaluation precision, at
    # x = 0, the Gershgorin ends, a zero of P_n polished to the working
    # precision, and a point between the zeros
    tbl = _oracle_table(zq, n)
    b, a = tbl.b[:n], tbl.a[:n]
    for bits in (tbl.ctx.bits + 32, tbl.ctx.bits + RESIDUAL_GUARD_BITS):
        with mp.workprec(bits):
            e = [mp.mpf(0)] + [mp.sqrt(v) for v in tbl.a[1:n]] + [mp.mpf(0)]
            lo = min(b[i] - e[i] - e[i + 1] for i in range(n))
            hi = max(b[i] + e[i] + e[i + 1] for i in range(n))
            x = kernel._mpf(kernel._seed([float(v) for v in b], [float(v) for v in a], n,
                                         kernel._image(lo), kernel._image(hi), bits))
            for _ in range(6):
                f, fp, fpp = _ttrr_d2_mpf(b, a, n, x)
                if f == 0:
                    break
                dx = f / fp
                x -= dx / (1 - dx * fpp / (2 * fp))
            points = [mp.mpf(0), lo, hi, x, (lo + 2 * hi) / 3]
            want = [_ttrr_d2_mpf(b, a, n, x) + _sturm_mpf(b, a, n, x) for x in points]
        # the polished point is a zero: P_n there is roundoff
        assert abs(want[3][0]) <= abs(want[4][0]) * mp.mpf(2) ** (-bits // 2)
        nb, na = kernel._neg_images(b, a, n)
        for x, (f, fp, fpp, count, p) in zip(points, want):
            xi = kernel._image(x)
            c, pi = kernel._sturm(nb, na, n, xi, bits)
            steps = kernel._ttrr_d2(nb, na, n, xi, bits)
            got = [kernel._mpf(v)._mpf_ for v in steps[-1] + (pi,)]
            assert (got, c) == ([v._mpf_ for v in (f, fp, fpp, p)], count)
            # every shorter pass is a prefix of this one
            assert steps[:n // 2 + 1] == kernel._ttrr_d2(nb, na, n // 2, xi, bits)


# --- the eigensolver's loops on images against the same loops in mpf -------

@st.composite
def _quotients(draw):
    """(bits, u, v): a dividend and a nonzero divisor.  The quotient is
    anything, exact, exactly halfway between two numbers of `bits` bits
    (which needs operands longer than `bits` bits) or just off halfway,
    or 0."""
    bits = draw(st.sampled_from(IMAGE_BITS))
    mant = st.integers(-(1 << bits) + 1, (1 << bits) - 1)
    v = draw(mant.filter(bool))
    kind = draw(st.sampled_from(["any", "exact", "tie", "near-tie", "zero"]))
    if kind == "any":
        u = draw(mant)
    elif kind == "exact":
        u = v * draw(st.integers(-(1 << 20), 1 << 20))
    elif kind in ("tie", "near-tie"):
        u = v * (2 * draw(st.integers(1 << (bits - 1), (1 << bits) - 1)) + 1)
        # 1/v off the tie: only the sticky bit of the remainder tells
        u += draw(st.sampled_from([1, -1])) if kind == "near-tie" else 0
        u *= draw(st.sampled_from([1, -1]))
    else:
        u = 0
    exps = st.integers(-4 * bits, 4 * bits)
    return bits, (u, draw(exps)), (v, draw(exps))


@given(_quotients())
@settings(max_examples=400, deadline=None)
def test_image_quotient_matches_mpmath(case):
    bits, u, v = case
    assert _raw(kernel._div(u, v, bits)) == mpf_div(_raw(u), _raw(v), bits, round_nearest)


@st.composite
def _comparisons(draw):
    """(u, v): v is u itself in another image (a shifted mantissa), u moved
    by one unit of its last bit, its negation, 0, or anything."""
    bits = draw(st.sampled_from(IMAGE_BITS))
    m = draw(st.integers(-(1 << bits) + 1, (1 << bits) - 1))
    e = draw(st.integers(-4 * bits, 4 * bits))
    k = draw(st.integers(0, 2 * bits))
    v = draw(st.sampled_from([(m << k, e - k), (m + 1, e), (m - 1, e), (-m, e), (0, e - k),
                              (draw(st.integers(-(1 << bits), 1 << bits)), e - k)]))
    return draw(st.permutations([(m, e), v]))


@given(_comparisons())
@settings(max_examples=400, deadline=None)
def test_image_comparison_matches_mpmath(case):
    u, v = case
    assert kernel._cmp(u, v) == mpf_cmp(_raw(u), _raw(v))


def _sturm_count_mpf(b, a, x, pivmin):
    """Number of eigenvalues below x by the LDL pivots q_0 = b_0 - x,
    q_i = b_i - x - a_i / q_{i-1} that are negative, a zero pivot taken as
    -pivmin (Barth, Martin & Wilkinson, Numer. Math. 9, 1967), in mpf at
    mpmath's global precision."""
    count = 0
    q = b[0] - x
    if q == 0:
        q = -pivmin
    if q < 0:
        count += 1
    for i in range(1, len(b)):
        q = b[i] - x - a[i] / q
        if q == 0:
            q = -pivmin
        if q < 0:
            count += 1
    return count


def _sign_mpf(b, a, n, x):
    f = _sturm_mpf(b, a, n, x)[1]
    return None if f == 0 else f > 0


def _polish_mpf(b, a, fb, fa, n, lo, hi, lo_up, tol, steps):
    """kernel._polish in mpf, from the same binary64 seed, as it ran before
    its precision ladder and its cubic-bound stop: every step at the
    working precision, stopping only on a step within tol.  Its iterates
    differ, its zeros rounded to the context precision may not."""
    x = kernel._mpf(kernel._seed(fb, fa, n, kernel._image(lo), kernel._image(hi), mp.mp.prec))
    for _ in range(steps):
        f, fp, fpp = _ttrr_d2_mpf(b, a, n, x)
        if f == 0 or fp == 0:
            break
        dx = f / fp
        h = 1 - dx * fpp / (2 * fp)
        if h != 0:
            dx /= h
        x1 = x - dx
        if not lo <= x1 <= hi:
            m = (lo + hi) / 2
            if _sign_mpf(b, a, n, m) != lo_up:
                hi = m
            else:
                lo = m
            x = (lo + hi) / 2
            continue
        x = x1
        if abs(dx) <= tol:
            break
    return mp.mpf(0) if abs(x) <= tol and _sign_mpf(b, a, n, mp.mpf(0)) is None else x


def _separators_mpf(b, a, lo, hi, pivmin):
    """The bisection of kernel._separators in mpf, but on the LDL pivot
    count of _sturm_count_mpf with a separate sign read: its cuts may
    differ, the eigenvalues polished between them may not."""
    n = len(b)
    ends = [lo] + [None] * (n - 1) + [hi]
    up = [_sign_mpf(b, a, n, lo)] + [None] * (n - 1) + [_sign_mpf(b, a, n, hi)]
    todo = [(lo, 0, hi, n)]
    while todo:
        x, cx, y, cy = todo.pop()
        m = (x + y) / 2
        if None not in ends[cx:cy + 1] or not x < m < y:
            continue
        c = _sturm_count_mpf(b, a, m, pivmin)
        if ends[c] is None:
            s = _sign_mpf(b, a, n, m)
            if s is not None and s == ((n - c) % 2 == 0):
                ends[c], up[c] = m, s
        todo += [part for part in ((x, cx, m, c), (m, c, y, cy)) if part[1] < part[3]]
    return None if None in ends else (ends, up)


def _eigenvalues_mpf(diag, off2, ctx, cuts=None):
    """tridiag_eigenvalues with every loop in mpf at the working precision:
    the same set-up, polish and rounding, the Sturm route cut by pivot
    counts."""
    n, work = len(diag), ctx.bits + 32
    with mp.workprec(work):
        b = [mp.mpf(v) for v in diag]
        if n == 1:
            return [ctx.round(b[0])]
        a = [mp.mpf(0)] + [mp.mpf(v) for v in off2]
        fb, fa = [float(v) for v in b], [float(v) for v in a]
        e = [mp.mpf(0)] + [mp.sqrt(v) for v in a[1:]] + [mp.mpf(0)]
        lo = min(b[i] - (e[i] + e[i + 1]) for i in range(n))
        hi = max(b[i] + (e[i] + e[i + 1]) for i in range(n))
        spread = (hi - lo) or mp.mpf(1)
        lo -= spread * mp.mpf(2) ** -20
        hi += spread * mp.mpf(2) ** -20
        floor = (hi - lo) * mp.mpf(2) ** -16

        def solve(ends, up):
            if any(not x < y for x, y in zip(ends, ends[1:])):
                return None
            if None in up or any(s == t for s, t in zip(up, up[1:])):
                return None
            return [_polish_mpf(b, a, fb, fa, n, ends[k], ends[k + 1], up[k],
                                max(abs(ends[k] + ends[k + 1]) / 2, floor)
                                * mp.mpf(2) ** -(ctx.bits + 8), ctx.bits)
                    for k in range(n)]

        out = None
        if cuts is not None:
            ends = [lo] + [mp.mpf(c) for c in cuts] + [hi]
            out = solve(ends, [_sign_mpf(b, a, n, x) for x in ends])
        if out is None:
            out = solve(*_separators_mpf(b, a, lo, hi,
                                         max(max(a), mp.mpf(1)) * mp.mpf(2) ** (-2 * work)))
    return [ctx.round(x) for x in out]


def _raws(xs):
    return [x._mpf_ for x in xs]


@pytest.mark.parametrize("zq", ["0.25", "1", "4"])
def test_eigensolver_matches_the_mpf_loops_on_tables(zq):
    # every zero of P_n at the default bits of a degree-48 table, on the
    # Sturm route and on the route cut by the zeros of P_{n-1}; degrees
    # spread to 48, since all 48 would take a minute per z
    tbl = _oracle_table(zq, 48)
    for n in (1, 2, 3, 5, 8, 13, 21, 34, 48):
        diag, off2 = tbl.b[:n], tbl.a[1:n]
        got = tridiag_eigenvalues(diag, off2, tbl.ctx)
        assert _raws(got) == _raws(_eigenvalues_mpf(diag, off2, tbl.ctx)), n
        if n > 1:
            prev = tridiag_eigenvalues(diag[:-1], off2[:-1], tbl.ctx)
            cut = tridiag_eigenvalues(diag, off2, tbl.ctx, cuts=prev)
            assert _raws(cut) == _raws(_eigenvalues_mpf(diag, off2, tbl.ctx, cuts=prev)), n


def _integer_matrices():
    """1,500 random Jacobi matrices (diag, off2) with small integer entries,
    of sizes 2 to 6; some are singular."""
    rng = random.Random(0)
    for _ in range(1500):
        n = rng.randint(2, 6)
        yield ([mp.mpf(rng.randint(-4, 4)) for _ in range(n)],
               [mp.mpf(rng.randint(1, 4)) for _ in range(n - 1)])


def test_sturm_count_is_exact_on_integer_matrices():
    # at integer x every P_k(x) is an integer the working precision holds,
    # so the count is n less the sign changes of the nonzero P_k(x), taken
    # exactly; a zero P_n(x) counts its eigenvalue x as below x
    bits = 128 + 32
    for diag, off2 in _integer_matrices():
        n = len(diag)
        nb, na = kernel._neg_images(diag, [mp.mpf(0)] + off2, n)
        b, a = [Fraction(int(v)) for v in diag], [0] + [Fraction(int(v)) for v in off2]
        for x in range(-13, 14):
            ps = [Fraction(0), Fraction(1)]
            for k in range(n):
                ps.append((x - b[k]) * ps[-1] - a[k] * ps[-2])
            signs = [p > 0 for p in ps[1:] if p]
            changes = sum(s != t for s, t in zip(signs, signs[1:]))
            count, p = kernel._sturm(nb, na, n, (x, 0), bits)
            assert (count, Fraction(p[0]) * Fraction(2) ** p[1]) == (n - changes, ps[-1]), \
                (diag, off2, x)


def test_eigensolver_matches_the_mpf_loops_on_small_integer_matrices():
    # 1,500 random matrices with small integer entries at 128 bits, on both
    # routes; some are singular, so the zero rule is exercised too
    ctx = PrecisionContext(128)
    exact_zeros = 0
    for diag, off2 in _integer_matrices():
        n = len(diag)
        got = tridiag_eigenvalues(diag, off2, ctx)
        assert _raws(got) == _raws(_eigenvalues_mpf(diag, off2, ctx)), (diag, off2)
        # the Sturm pass on each eigenvalue, where rounding decides the count
        with mp.workprec(ctx.bits + 32):
            b, a = diag, [mp.mpf(0)] + off2
            nb, na = kernel._neg_images(b, a, n)
            for x in got:
                count, p = kernel._sturm(nb, na, n, kernel._image(x), ctx.bits + 32)
                want = _sturm_mpf(b, a, n, x)
                assert (count, kernel._mpf(p)._mpf_) == (want[0], want[1]._mpf_)
        cuts = tridiag_eigenvalues(diag[:-1], off2[:-1], ctx)
        cut = tridiag_eigenvalues(diag, off2, ctx, cuts=cuts)
        assert _raws(cut) == _raws(_eigenvalues_mpf(diag, off2, ctx, cuts=cuts)), (diag, off2)
        exact_zeros += got.count(0)
    assert exact_zeros


def test_zero_eigenvalue_is_exactly_zero():
    # diag [1, 1] with off2 [1] has the eigenvalues 0 and 2; the polish
    # stops within its tolerance of 0, and P_2(0) = 0 exactly makes it 0
    ctx = PrecisionContext(128)
    diag, off2 = [mp.mpf(1), mp.mpf(1)], [mp.mpf(1)]
    for cuts in (None, [mp.mpf(1)]):
        ev = tridiag_eigenvalues(diag, off2, ctx, cuts=cuts)
        assert _raws(ev) == _raws([mp.mpf(0), mp.mpf(2)])


def test_settled_needs_the_cubic_bound_and_no_tie():
    # x = 3/2 in [1, 2]: d = 1/2, n = 2, tol = 2^-140, rounding to 128 bits,
    # whose ties near x lie at odd multiples of 2^-128
    bracket, tol = ((1, 0), (2, 0), True), (1, -140)
    x = (3, -1)
    # n^2 |dx|^3 = 2^-298 is far below tol 2^-8 (2 d^2) = 2^-149
    assert kernel._settled(x, (1, -100), bracket, 2, tol, 128)
    # a step of 2^-40 bounds the error by 2^-117 only
    assert not kernel._settled(x, (1, -40), bracket, 2, tol, 128)
    # within 2 tol = 2^-139 of the tie 3/2 + 2^-128, and just beyond it
    near = ((3 << 140) + (1 << 13) + 1, -141)
    beyond = ((3 << 140) + (1 << 13) + (1 << 4), -141)
    assert not kernel._settled(near, (1, -100), bracket, 2, tol, 128)
    assert kernel._settled(beyond, (1, -100), bracket, 2, tol, 128)
    # near 0 the ties lie closer together than 2 tol
    assert not kernel._settled((1, -200), (1, -100), ((-1, 0), (1, 0), True), 2, tol, 128)


def test_no_helper_forks_another(monkeypatch):
    # the process may use two CPUs; neither its helper nor the process while
    # the helper lives may fork another: not the row split, not verify and
    # not the zero sweep
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    assert kernel._two_cpus() and recurrence._splits(160) and zeros_module._sweep_cut(48) < 48
    with kernel._forked(lambda receive, send:
                        send((kernel._two_cpus(), recurrence._splits(160),
                              zeros_module._sweep_cut(48)))) as link:
        assert not kernel._two_cpus()
        assert not recurrence._splits(160) and zeros_module._sweep_cut(48) == 48
        assert link[1]() == (False, False, 48)
    assert_no_child()
    assert kernel._two_cpus()


def test_the_helper_leaves_the_callers_cpu(monkeypatch):
    # a cpuset without load balancing keeps a forked child on its parent's
    # CPU, so the helper restricts itself to the CPUs other than the one the
    # caller ran on at the fork, where there are any
    cpus = os.sched_getaffinity(0)
    assert kernel._current_cpu() in cpus | {None}
    here = min(cpus)
    monkeypatch.setattr(kernel, "_current_cpu", lambda: here)
    with kernel._forked(lambda receive, send: send(tuple(sorted(os.sched_getaffinity(0))))) \
            as link:
        assert set(link[1]()) == (cpus - {here} or cpus)
    assert_no_child()
    assert os.sched_getaffinity(0) == cpus
