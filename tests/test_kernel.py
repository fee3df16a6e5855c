from __future__ import annotations

import functools

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath.libmp import from_man_exp, mpf_add, mpf_mul, round_nearest

from tfreud import kernel
from tfreud.kernel import (
    RESIDUAL_GUARD_BITS,
    ConvergenceError,
    DomainError,
    MonicPoly,
    PrecisionContext,
    RationalFn,
    default_bits,
    poly_add,
    poly_diff,
    poly_eval,
    poly_mul,
    poly_sub,
    poly_trim,
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

def test_poly_basic_ops():
    p = [mp.mpf(1), mp.mpf(2)]          # 1 + 2x
    q = [mp.mpf(0), mp.mpf(0), mp.mpf(3)]  # 3x^2
    assert poly_add(p, q) == [1, 2, 3]
    assert poly_sub(poly_add(p, q), q) == [1, 2]
    assert poly_mul(p, q) == [0, 0, 3, 6]
    assert poly_diff([mp.mpf(5), mp.mpf(0), mp.mpf(7)]) == [0, 14]
    assert poly_trim([mp.mpf(1), mp.mpf(0), mp.mpf(0)]) == [1]
    assert poly_eval([1, 2, 3], mp.mpf(2)) == 17


coeff = st.integers(min_value=-50, max_value=50)
small_poly = st.lists(coeff, min_size=1, max_size=6)


@given(small_poly, small_poly, st.integers(min_value=-5, max_value=5))
@settings(max_examples=60, deadline=None)
def test_poly_mul_matches_pointwise(p, q, x):
    pm = [mp.mpf(c) for c in p]
    qm = [mp.mpf(c) for c in q]
    lhs = poly_eval(poly_mul(pm, qm), mp.mpf(x))
    rhs = poly_eval(pm, mp.mpf(x)) * poly_eval(qm, mp.mpf(x))
    assert lhs == rhs


@given(small_poly, small_poly, st.integers(min_value=-5, max_value=5))
@settings(max_examples=60, deadline=None)
def test_poly_product_rule(p, q, x):
    pm = [mp.mpf(c) for c in p]
    qm = [mp.mpf(c) for c in q]
    lhs = poly_diff(poly_mul(pm, qm))
    rhs = poly_add(poly_mul(poly_diff(pm), qm), poly_mul(pm, poly_diff(qm)))
    assert poly_eval(lhs, mp.mpf(x)) == poly_eval(rhs, mp.mpf(x))


def test_monic_poly_guard():
    with pytest.raises(DomainError):
        MonicPoly((mp.mpf(1), mp.mpf(2)))
    p = MonicPoly((mp.mpf(-3), mp.mpf(2), mp.mpf(1)))
    assert p.degree == 2
    assert p.eval(1) == 0


def test_rational_fn_eval_and_derivative():
    # f = x / (1 + x^2);  f' = (1 - x^2) / (1 + x^2)^2
    f = RationalFn((mp.mpf(0), mp.mpf(1)), (mp.mpf(1), mp.mpf(0), mp.mpf(1)))
    x = mp.mpf(3) / 7
    assert f.eval(x) == x / (1 + x * x)
    df = f.derivative()
    expect = (1 - x * x) / (1 + x * x) ** 2
    assert abs(df.eval(x) - expect) <= mp.mpf(2) ** -45


def test_rational_fn_algebra():
    one_over_x = RationalFn((mp.mpf(1),), (mp.mpf(0), mp.mpf(1)))
    with pytest.raises(ZeroDivisionError):
        one_over_x.eval(0)
    with pytest.raises(DomainError):
        RationalFn((mp.mpf(1),), (mp.mpf(0),))


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
    # the zeros of degree n-1 cut the brackets of degree n: no Sturm count
    ctx = PrecisionContext(192)
    diag, off2, ref = _chebyshev(n)
    cuts = tridiag_eigenvalues(diag[:-1], off2[:-1], ctx)
    plain = tridiag_eigenvalues(diag, off2, ctx)
    monkeypatch.setattr(kernel, "_sturm_count", None)
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
    real = kernel._sturm_count
    monkeypatch.setattr(kernel, "_sturm_count", lambda *a: counts.append(1) or real(*a))
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

    def seed(fb, fa, n, lo, hi):
        x = real(fb, fa, n, lo, hi)
        mids.append(x == (lo + hi) / 2)
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
    # puts it.  Centred on 0, the points beside it that miscount reach down
    # to 0 itself, and bisection beside them must stay a single path
    # (about `work` steps each way), not fan out toward 0.
    ctx = PrecisionContext(256)
    shift = mp.mpf(n - 1) / 2 if centred else 0
    diag, off2 = [mp.mpf(k) - shift for k in range(n)], [mp.mpf(1) / 4] * (n - 1)
    real, counts = kernel._sturm_count, []
    monkeypatch.setattr(kernel, "_sturm_count", lambda *a: counts.append(1) or real(*a))
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
    """The recurrence loop of ttrr_d2 in mpf at mpmath's global precision:
    the oracle for the loop on integer images."""
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


def _ttrr_mpf(b, a, n, x):
    """The loop of kernel._ttrr in mpf, as _ttrr_d2_mpf."""
    p_prev, p = mp.mpf(0), mp.mpf(1)
    for k in range(n):
        p, p_prev = (x - b[k]) * p - a[k] * p_prev, p
    return p


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
            x = kernel._seed([float(v) for v in b], [float(v) for v in a], n, lo, hi)
            for _ in range(6):
                f, fp, fpp = _ttrr_d2_mpf(b, a, n, x)
                if f == 0:
                    break
                dx = f / fp
                x -= dx / (1 - dx * fpp / (2 * fp))
            points = [mp.mpf(0), lo, hi, x, (lo + 2 * hi) / 3]
            want = [_ttrr_d2_mpf(b, a, n, x) + (_ttrr_mpf(b, a, n, x),) for x in points]
        # the polished point is a zero: P_n there is roundoff
        assert abs(want[3][0]) <= abs(want[4][0]) * mp.mpf(2) ** (-bits // 2)
        for x, w in zip(points, want):
            got = kernel.ttrr_d2(b, a, n, x, bits) + (kernel._ttrr(b, a, n, x, bits),)
            assert [v._mpf_ for v in got] == [v._mpf_ for v in w]
