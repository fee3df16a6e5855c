from __future__ import annotations

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tfreud.kernel import DomainError, PrecisionContext
from tfreud.moments import (
    MomentSequence,
    moment,
    moment_recurrence_residual,
    moment_sequence,
    pearson_data,
    pearson_product,
    stieltjes_residual,
)
from tfreud.recurrence import chebyshev_coeffs


def quad_moment(n, z, dps=60):
    """Independent oracle: the defining integral of mu_n."""
    with mp.workdps(dps):
        zv = mp.mpf(z)
        return mp.quad(lambda x: x ** n * mp.exp(-zv * x ** 4), [0, mp.inf])


def test_moment_trivial_quarter():
    ctx = PrecisionContext(128)
    assert moment(3, 1, ctx) == mp.mpf(1) / 4


def test_moment_scaling_example():
    ctx = PrecisionContext(128)
    assert moment(3, 16, ctx) == mp.mpf("0.015625")


def test_moment_zero_spot_value():
    ctx = PrecisionContext(128)
    got = moment(0, 1, ctx)
    assert abs(got - mp.mpf("0.906402477055477")) < mp.mpf("1e-15")


@pytest.mark.parametrize("n,z", [(0, 1), (1, 1), (2, 1), (5, 1), (0, 4), (3, "0.25"), (7, 2)])
def test_moment_matches_quadrature(n, z):
    ctx = PrecisionContext(128)
    got = moment(n, mp.mpf(z), ctx)
    ref = quad_moment(n, z)
    assert abs(got - ref) <= ctx.verify_tol(ref)


def test_moment_domain_errors():
    ctx = PrecisionContext(64)
    with pytest.raises(DomainError):
        moment(0, 0, ctx)
    with pytest.raises(DomainError):
        moment(0, -1, ctx)
    with pytest.raises(DomainError):
        moment(-1, 1, ctx)


@pytest.mark.parametrize("z", [0, -1, mp.inf, -mp.inf, mp.nan, "inf", "-inf", "nan"])
def test_z_must_be_positive_and_finite(z):
    # one guard for every reader of z: infinities would give zero moments or
    # a division by zero further down, instead of an error
    ctx = PrecisionContext(64)
    for fn in (lambda: moment(0, z, ctx), lambda: moment_sequence(z, 4, ctx),
               lambda: pearson_product(z, ctx), lambda: chebyshev_coeffs(z, 2, ctx)):
        with pytest.raises(DomainError, match="positive and finite"):
            fn()


def test_moment_sequence_access():
    ctx = PrecisionContext(128)
    ms = MomentSequence.build(1, 8, ctx)
    assert len(ms) == 9
    assert ms[3] == mp.mpf(1) / 4
    assert all(v > 0 for v in ms.values)


def test_build_many_keeps_the_bits_of_moment():
    # one Gamma((n+1)/4) per index serves every z: each entry must still be
    # the bits moment() gives at that z
    ctx = PrecisionContext(256)
    zs = [mp.mpf(1) / 4, 1, "4", 16, mp.mpf(1) / 16]
    for z, ms in zip(zs, MomentSequence.build_many(zs, 30, ctx)):
        assert [v._mpf_ for v in ms.values] == [moment(n, z, ctx)._mpf_ for n in range(31)]
    with pytest.raises(DomainError):
        MomentSequence.build_many([1, 0], 4, ctx)


def test_recurrence_residual_exact_integer_case():
    # z=1, n=3: both sides are Gamma at integer arguments, so the residual
    # is exactly zero in binary arithmetic
    ctx = PrecisionContext(128)
    ms = MomentSequence.build(1, 8, ctx)
    assert moment_recurrence_residual(ms, 3)[0] == 0


@pytest.mark.parametrize("z", ["0.25", "1", "5"])
def test_recurrence_residual_whole_table(z):
    ctx = PrecisionContext(192)
    ms = MomentSequence.build(mp.mpf(z), 24, ctx)
    for n in range(21):
        r, scale = moment_recurrence_residual(ms, n)
        assert abs(r) <= ctx.verify_tol(scale)


def test_recurrence_residual_index_guard():
    ctx = PrecisionContext(64)
    ms = MomentSequence.build(1, 5, ctx)
    with pytest.raises(IndexError):
        moment_recurrence_residual(ms, 2)
    with pytest.raises(IndexError):
        moment_recurrence_residual(ms, -1)


SEQUENCE_Z = ("0.25", "1", "4", "0.1", "0.3", "16", "7")


@pytest.mark.parametrize("bits, zs", [(64, SEQUENCE_Z), (192, SEQUENCE_Z), (352, SEQUENCE_Z),
                                      (640, SEQUENCE_Z), (3312, ("1", "0.1", "0.25", "4", "16"))],
                         ids=["64", "192", "352", "640", "3312"])
def test_moment_sequence_correctly_rounded(bits, zs):
    # each entry is the closed form at bits + 256 rounded to ctx; z is held
    # at 64 bits, so every route reads the same binary number.  3312 bits is
    # the internal precision of a degree-160 table at default bits.
    ctx, N = PrecisionContext(bits), 321
    with mp.workprec(bits + 256):
        gammas = [mp.gamma(mp.mpf(n + 1) / 4) for n in range(N + 1)]
    for z in zs:
        with mp.workprec(64):
            zv = mp.mpf(z)
        got = moment_sequence(zv, N, ctx)
        assert len(got) == N + 1
        with mp.workprec(bits + 256):
            want = [ctx.round(zv ** (-mp.mpf(n + 1) / 4) * g / 4)
                    for n, g in enumerate(gammas)]
        assert [v._mpf_ for v in got] == [v._mpf_ for v in want]


@pytest.mark.parametrize("z", ["1", "0.1", "16"])
def test_moment_sequence_matches_closed_form_route(z):
    ctx = PrecisionContext(352)
    assert [v._mpf_ for v in moment_sequence(z, 40, ctx)] == \
        [moment(n, z, ctx)._mpf_ for n in range(41)]


@pytest.mark.parametrize("z, mu3", [(1, mp.mpf(1) / 4), (16, mp.mpf(1) / 64)])
def test_moment_sequence_mu3_exact(z, mu3):
    assert moment_sequence(z, 3, PrecisionContext(128))[3] == mu3


def test_moment_sequence_short_and_errors():
    ctx = PrecisionContext(64)
    assert len(moment_sequence(1, 0, ctx)) == 1
    assert len(moment_sequence(1, 2, ctx)) == 3
    with pytest.raises(DomainError):
        moment_sequence(1, -1, ctx)
    with pytest.raises(DomainError):
        moment_sequence(0, 4, ctx)


def test_coefficients_make_no_gamma_call(monkeypatch):
    # the Gamma set-up at a few thousand bits is what moment_sequence avoids
    ctx = PrecisionContext(768)
    want = [moment(n, 1, ctx) for n in range(41)]

    def no_gamma(*args, **kwargs):
        raise AssertionError("mp.gamma called")

    monkeypatch.setattr(mp, "gamma", no_gamma)
    monkeypatch.setattr(mp.mp, "gamma", no_gamma)
    with pytest.raises(AssertionError):
        moment(0, 1, ctx)
    assert moment_sequence(1, 40, ctx) == want
    tbl = chebyshev_coeffs(1, 40, ctx)
    assert tbl.n_max == 40


@given(st.integers(min_value=0, max_value=40),
       st.fractions(min_value="1/8", max_value=8))
@settings(max_examples=40, deadline=None)
def test_recurrence_residual_property(n, zfrac):
    ctx = PrecisionContext(128)
    z = mp.mpf(zfrac.numerator) / zfrac.denominator
    lhs = 4 * z * moment(n + 4, z, ctx)
    rhs = (n + 1) * moment(n, z, ctx)
    assert abs(lhs - rhs) <= ctx.verify_tol(rhs)


@pytest.mark.parametrize("n", [0, 1, 2, 7, 13])
def test_scaling_law_across_grid(n):
    # mu_n(z) * z^((n+1)/4) must not depend on z
    ctx = PrecisionContext(192)
    vals = []
    for z in (mp.mpf(1) / 4, mp.mpf(1), mp.mpf(4), mp.mpf(16)):
        vals.append(moment(n, z, ctx) * z ** (mp.mpf(n + 1) / 4))
    for v in vals[1:]:
        assert abs(v - vals[0]) <= ctx.verify_tol(vals[0])


@pytest.mark.parametrize("n,z", [(0, 1), (4, 2), (9, "0.5")])
def test_z_derivative_finite_difference(n, z):
    # 4z * d(mu_n)/dz + (n+1) mu_n = 0; central differences, O(h^2) decay
    ctx = PrecisionContext(160)
    zv = mp.mpf(z)
    h = zv * mp.mpf(2) ** (-ctx.bits // 4)
    res = []
    for step in (h, h / 2):
        d = (moment(n, zv + step, ctx) - moment(n, zv - step, ctx)) / (2 * step)
        res.append(4 * zv * d + (n + 1) * moment(n, zv, ctx))
    assert abs(res[0]) < mp.mpf("1e-12") * moment(n, zv, ctx)
    ratio = res[0] / res[1]
    assert mp.mpf("3.9") < ratio < mp.mpf("4.1")


def test_hankel_determinants_positive():
    ctx = PrecisionContext(192)
    ms = MomentSequence.build(1, 10, ctx)

    def det(m):
        # fraction-free Gaussian elimination is overkill at this size
        n = len(m)
        if n == 1:
            return m[0][0]
        total = mp.mpf(0)
        sign = 1
        for j in range(n):
            minor = [row[:j] + row[j + 1:] for row in m[1:]]
            total += sign * m[0][j] * det(minor)
            sign = -sign
        return total

    for order in range(1, 7):
        h = [[ms[i + j] for j in range(order)] for i in range(order)]
        assert det(h) > 0


def test_class_check_and_product():
    ctx = PrecisionContext(128)
    for z in ("0.25", "1", "7"):
        assert pearson_data(mp.mpf(z), ctx).class_ == 3
        p = pearson_product(mp.mpf(z), ctx)
        assert abs(p - 1) <= ctx.verify_tol(1)


def test_pearson_data_shapes():
    ctx = PrecisionContext(128)
    pd = pearson_data(2, ctx)
    assert pd.phi == (0, 1)
    assert pd.psi[0] == -1 and pd.psi[4] == 8
    assert pd.class_ == 3


def test_stieltjes_partial_single_term():
    # a sequence whose only nonzero moment is mu_0: S_N = mu_0/t, so the
    # scale is 4z t^3 mu_0 + 1
    ctx = PrecisionContext(128)
    mu0 = moment(0, 1, ctx)
    mseq = MomentSequence(mp.mpf(1), (mu0, mp.mpf(0), mp.mpf(0), mp.mpf(0)), ctx)
    _, scale = stieltjes_residual(mseq, 2, 3)
    assert abs(scale - (4 * 2 ** 4 * mu0 / 2 + 1)) <= ctx.verify_tol(scale)


def test_stieltjes_partial_decay():
    ctx = PrecisionContext(128)
    t = mp.mpf(10) ** 8
    _, scale = stieltjes_residual(MomentSequence.build(1, 6, ctx), t, 6)
    with ctx.workprec(64):
        assert abs((scale - 1) / (4 * t ** 4)) < mp.mpf(10) ** -7


def test_stieltjes_partial_errors():
    ctx = PrecisionContext(64)
    mseq = MomentSequence.build(1, 5, ctx)
    with pytest.raises(DomainError):
        stieltjes_residual(mseq, 0, 3)
    with pytest.raises(IndexError):
        stieltjes_residual(mseq, 2, 6)


def _tail(mseq, t, N):
    """-sum_{n=N-3}^{N} (n+1) mu_n t^(-n-1)."""
    with mseq.ctx.workprec(32):
        return -mp.fsum((n + 1) * mseq[n] * mp.mpf(t) ** (-n - 1) for n in range(N - 3, N + 1))


@pytest.mark.parametrize("t,z,N", [(2, 1, 3), (2, 1, 9), (10, 1, 20), ("-3", 2, 7), ("0.5", "0.25", 12)])
def test_stieltjes_ode_residual_equals_tail(t, z, N):
    ctx = PrecisionContext(160)
    mseq, tv = MomentSequence.build(z, N, ctx), mp.mpf(t)
    res, scale = stieltjes_residual(mseq, tv, N)
    # the residual is a difference of sums of this magnitude
    size = mp.fsum(mseq[n] / abs(tv) ** (n + 1) for n in range(N + 1))
    assert abs(scale - (4 * mseq.z * tv ** 4 * size + 1)) <= ctx.verify_tol(scale)
    assert abs(res) <= ctx.verify_tol(scale)


def test_stieltjes_ode_residual_tail_bound():
    ctx = PrecisionContext(160)
    mseq = MomentSequence.build(1, 20, ctx)
    res, _ = stieltjes_residual(mseq, 10, 20)
    bound = 4 * 21 * moment(20, 1, ctx) * mp.mpf(10) ** -18
    assert abs(res + _tail(mseq, 10, 20)) <= bound


def test_stieltjes_ode_residual_large_t_vanishes():
    ctx = PrecisionContext(128)
    mseq = MomentSequence.build(1, 3, ctx)
    t = mp.mpf(10) ** 6
    res, _ = stieltjes_residual(mseq, t, 3)
    assert abs(res + _tail(mseq, t, 3)) < mp.mpf(10) ** -3


def test_stieltjes_ode_residual_guards():
    ctx = PrecisionContext(64)
    mseq = MomentSequence.build(1, 5, ctx)
    with pytest.raises(DomainError):
        stieltjes_residual(mseq, 2, 2)
    with pytest.raises(DomainError):
        stieltjes_residual(mseq, 0, 5)
