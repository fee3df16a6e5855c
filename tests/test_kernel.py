from __future__ import annotations

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tfreud import kernel
from tfreud.kernel import (
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
