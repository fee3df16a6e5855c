from __future__ import annotations

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import (horner, horner_d, lowering_ref, monic_polys, poly_diff, quotient_slope,
                      raising_ref, structure_ref)

from tfreud import operators
from tfreud.kernel import RESIDUAL_GUARD_BITS, DomainError, PrecisionContext, _image, _mpf, \
    default_bits
from tfreud.moments import moment
from tfreud.operators import (
    beta_lower,
    beta_row,
    confluent_check,
    identity_i_residual,
    identity_ii_residual,
    jacobi_matrix,
    ladder_A,
    ladder_B,
    ladder_residuals,
    lax_block_check,
    lowering_data,
    lowering_residuals,
    mat_mul,
    recurrence_passes,
    sample_grid,
    structure_coeffs,
    structure_residual,
)
from tfreud.recurrence import chebyshev_coeffs, lf_residual_I

CTX = PrecisionContext(256)


@pytest.fixture(scope="module")
def t16():
    tbl = chebyshev_coeffs(1, 16, CTX)
    return tbl, monic_polys(tbl, 16)


@pytest.fixture(scope="module")
def t24():
    return chebyshev_coeffs(1, 24, CTX)


@pytest.fixture(scope="module")
def t16z9():
    tbl = chebyshev_coeffs(9, 16, CTX)
    return tbl, monic_polys(tbl, 16)


def log_grid(lo, hi, count):
    llo, lhi = mp.log(mp.mpf(lo)), mp.log(mp.mpf(hi))
    return [mp.exp(llo + (lhi - llo) * k / (count - 1)) for k in range(count)]


def grid_passes(tbl, n, degree, count=8):
    """Passes to `degree` on the sample grid of degree n."""
    return recurrence_passes(tbl, degree, sample_grid(n, tbl.z, CTX, count=count))


# ---------------------------------------------------------------------------
# beta rows against the fourth power of the Jacobi matrix
# ---------------------------------------------------------------------------

def test_beta_rows_match_jacobi_fourth_power(t24):
    size = 25
    J = jacobi_matrix(t24, size)
    J2 = mat_mul(J, J)
    J4 = mat_mul(J2, J2)
    scale = max(abs(v) for row in J4 for v in row)
    for n in (0, 2, 4, 9):
        row = beta_row(t24, n).as_vector(size)
        # columns past n+4 are exact zeros of the band; truncation spoils
        # nothing in rows this far from the edge
        for k in range(size):
            assert abs(row[k] - J4[n][k]) <= CTX.verify_tol(scale)


def test_beta_40_is_a_product(t16):
    tbl, _ = t16
    row = beta_row(tbl, 4)
    want = tbl.a[4] * tbl.a[3] * tbl.a[2] * tbl.a[1]
    assert abs(row.coeffs[0] - want) <= CTX.verify_tol(want)


def test_beta_boundary_rows_drop_negative_columns(t16):
    tbl, _ = t16
    for n in range(4):
        keys = set(beta_row(tbl, n).coeffs)
        assert min(keys) == 0
        assert max(keys) == n + 3


@given(st.integers(min_value=0, max_value=12))
@settings(max_examples=13, deadline=None)
def test_beta_top_band_is_a_b_sum(n):
    tbl = chebyshev_coeffs(1, 16, CTX)
    row = beta_row(tbl, n)
    want = tbl.b[n] + tbl.b[n + 1] + tbl.b[n + 2] + tbl.b[n + 3]
    assert abs(row.coeffs[n + 3] - want) <= CTX.verify_tol(want)


def test_beta_row_guards(t16):
    tbl, _ = t16
    with pytest.raises(IndexError):
        beta_row(tbl, -1)
    with pytest.raises(IndexError):
        beta_row(tbl, tbl.n_max - 2)
    with pytest.raises(IndexError):
        beta_lower(tbl, 0)


# ---------------------------------------------------------------------------
# structure relation
# ---------------------------------------------------------------------------

def test_structure_residual_zero_poly(t16, t16z9):
    # the structure relation on the monomial coefficients, and sampled
    for tbl, polys in (t16, t16z9):
        for n in (0, 5, 9):
            res, scale = structure_ref(tbl, polys, n)
            assert res <= CTX.verify_tol(scale)
            assert structure_residual(tbl, n, grid_passes(tbl, n, n + 1))[n] <= CTX.verify_tol(1)


def test_structure_c0_forced_at_n0(t16, t16z9):
    # x P_1' = P_1 + c_0 P_0 with P_1 = x - b_0 forces c_0 = b_0
    for tbl, _ in (t16, t16z9):
        c = structure_coeffs(tbl, 0)
        assert abs(c[0] - tbl.b[0]) <= CTX.verify_tol(tbl.b[0])
        assert c[1] == 0 and c[2] == 0 and c[3] == 0


def test_structure_guards(t16):
    tbl, _ = t16
    with pytest.raises(IndexError):
        structure_coeffs(tbl, tbl.n_max - 1)
    with pytest.raises(IndexError):
        structure_residual(tbl, 5, grid_passes(tbl, 5, 5))


# ---------------------------------------------------------------------------
# polynomial table sanity against the moment functional
# ---------------------------------------------------------------------------

def inner_from_moments(p, q, mu):
    return mp.fsum(ci * cj * mu[i + j]
                   for i, ci in enumerate(p) for j, cj in enumerate(q))


def test_orthogonality_from_moments(t16):
    tbl, polys = t16
    mu = [moment(k, 1, CTX) for k in range(17)]
    h_max = max(tbl.h[:9])
    for m in range(9):
        for n in range(9):
            got = inner_from_moments(polys[m], polys[n], mu)
            want = tbl.h[n] if m == n else mp.mpf(0)
            assert abs(got - want) <= CTX.verify_tol(h_max)


@pytest.mark.parametrize("z, n_max, bits", [
    (mp.mpf(1) / 16, 16, 128), (mp.mpf("0.3"), 40, 192), (mp.mpf(1), 64, 256),
    (mp.mpf(9), 24, 320)])
def test_at_zero_matches_poly_table_bits(z, n_max, bits):
    # the table's pass at x = 0 and the constant terms of the dense
    # polynomial table run the same constant-coefficient arithmetic
    tbl = chebyshev_coeffs(z, n_max, PrecisionContext(bits))
    assert [v._mpf_ for v in tbl.at_zero] == [p[0]._mpf_ for p in monic_polys(tbl, n_max)]


@given(st.floats(min_value=1 / 16, max_value=16), st.integers(min_value=0, max_value=64),
       st.integers(min_value=64, max_value=512))
@settings(max_examples=12, deadline=None)
def test_at_zero_matches_mpf_recurrence_bits(z, n_max, bits):
    # the table's pass at x = 0 on integer images gives the bits of
    # p_{k+1} = -b_k p_k - a_k p_{k-1} in mpf at bits + 32, each rounded
    ctx = PrecisionContext(bits)
    tbl = chebyshev_coeffs(z, n_max, ctx)
    with mp.workprec(bits + 32):
        p_prev, p = mp.mpf(0), mp.mpf(1)
        want = [p]
        for k in range(n_max):
            p, p_prev = -tbl.b[k] * p - tbl.a[k] * p_prev, p
            want.append(p)
    assert [v._mpf_ for v in tbl.at_zero] == [ctx.round(v)._mpf_ for v in want]


def test_p2_at_zero_closed_form(t16):
    tbl, _ = t16
    want = tbl.b[0] * tbl.b[1] - tbl.a[1]
    assert abs(tbl.at_zero[2] - want) <= CTX.verify_tol(1)


def test_p3_p1_inner_product_vanishes(t16):
    tbl, polys = t16
    mu = [moment(k, 1, CTX) for k in range(5)]
    got = inner_from_moments(polys[3], polys[1], mu)
    assert abs(got) <= CTX.verify_tol(tbl.h[2])


def test_subleading_coefficient_relations(t16):
    # sigma_n = -lambda_{n,n-1} = sum_{k<n} b_k and the telescoped form
    # b_n = lambda_{n,n-1} - lambda_{n+1,n}
    tbl, polys = t16
    for n in range(1, 11):
        assert abs(tbl.sigma(n) + polys[n][-2]) <= CTX.verify_tol(tbl.sigma(n))
        got = polys[n][-2] - polys[n + 1][-2]
        assert abs(tbl.b[n] - got) <= CTX.verify_tol(tbl.b[n] + 1)


# ---------------------------------------------------------------------------
# recurrence-based evaluation
# ---------------------------------------------------------------------------

def test_ttrr_matches_horner(t16):
    tbl, polys = t16
    xs = log_grid("0.05", 3, 9)
    passes = recurrence_passes(tbl, 12, xs)
    for n in (0, 1, 7, 12):
        for x, ps in zip(xs, passes):
            majorant = mp.fsum(abs(c) * abs(x) ** k for k, c in enumerate(polys[n]))
            assert abs(ps[n][0] - horner(polys[n], x)) <= CTX.verify_tol(majorant)


def test_ttrr_derivatives_match_formal(t16):
    tbl, polys = t16
    p = polys[9]
    dp = poly_diff(p)
    ddp = poly_diff(dp)
    xs = log_grid("0.1", 2, 5)
    for x, ps in zip(xs, recurrence_passes(tbl, 9, xs)):
        v, d1, d2 = ps[9]
        m1 = mp.fsum(abs(c) * abs(x) ** k for k, c in enumerate(dp))
        m2 = mp.fsum(abs(c) * abs(x) ** k for k, c in enumerate(ddp))
        assert abs(d1 - horner(dp, x)) <= CTX.verify_tol(m1)
        assert abs(d2 - horner(ddp, x)) <= CTX.verify_tol(m2)


def test_ttrr_guard(t16):
    tbl, _ = t16
    with pytest.raises(IndexError):
        recurrence_passes(tbl, tbl.n_max + 2, [mp.mpf(1)])


# ---------------------------------------------------------------------------
# ladder functions and their identities
# ---------------------------------------------------------------------------

def test_ladder_shapes(t16):
    tbl, _ = t16
    for n in (1, 4, 9):
        # the numerators over the denominator x: x*calA_n is a cubic with
        # leading 4z, x*calB_n a quadratic with leading 4 z a_n
        num_A, num_B = ladder_A(tbl, n), ladder_B(tbl, n)
        assert len(num_A) == 4
        assert abs(num_A[3] - 4 * tbl.z) <= CTX.verify_tol(tbl.z)
        assert len(num_B) == 3
        want = 4 * tbl.z * tbl.a[n]
        assert abs(num_B[2] - want) <= CTX.verify_tol(want)


def test_identity_i(t16):
    tbl, _ = t16
    res, scale = identity_i_residual(tbl, 2)
    assert abs(res) <= CTX.verify_tol(scale)
    for n in range(15):
        res, scale = identity_i_residual(tbl, n)
        assert abs(res) <= CTX.verify_tol(scale)


def test_identity_ii(t16):
    tbl, _ = t16
    res, scale = identity_ii_residual(tbl, 3)
    assert abs(res) <= CTX.verify_tol(scale)
    for n in range(1, 15):
        res, scale = identity_ii_residual(tbl, n)
        assert abs(res) <= CTX.verify_tol(scale)


def test_identities_keep_their_margin_at_degree_196():
    # each side of identity ii is a difference of much larger terms: scaled
    # by the sum of its term magnitudes it keeps more than 6 bits of margin
    # at n = 196, where max(|lhs|, |rhs|) left it 4 (and past 1 near n = 200)
    ctx = PrecisionContext(default_bits(198))
    tbl = chebyshev_coeffs(1, 198, ctx)
    for fn in (identity_i_residual, identity_ii_residual, lf_residual_I):
        res, scale = fn(tbl, 196)
        assert abs(res) <= ctx.verify_tol(scale)
    res, scale = identity_ii_residual(tbl, 196)
    assert abs(res) <= ctx.verify_tol(scale) / 64


def test_compat_residuals(t16):
    tbl, _ = t16
    passes = recurrence_passes(tbl, 8, log_grid("0.01", 4, 16))
    for r1, r2, _ in ladder_residuals(tbl, 8, passes):
        assert r1 <= CTX.verify_tol(1)
        assert r2 <= CTX.verify_tol(1)


def test_compat_pole_guard(t16):
    tbl, _ = t16
    with pytest.raises(DomainError):
        ladder_residuals(tbl, 2, recurrence_passes(tbl, 2, [mp.mpf(0)]))


# ---------------------------------------------------------------------------
# lowering / raising
# ---------------------------------------------------------------------------

def test_lowering_raising_zero_polys(t16):
    # both identities on the monomial coefficients, and sampled
    tbl, polys = t16
    low, up, _ = lowering_residuals(tbl, 9, grid_passes(tbl, 9, 11))
    for n in (2, 5, 9):
        data = lowering_data(tbl, n)
        for res, scale in (lowering_ref(tbl, polys, data), raising_ref(tbl, polys, data)):
            assert res <= CTX.verify_tol(scale)
        assert low[n - 2] <= CTX.verify_tol(1)
        assert up[n - 2] <= CTX.verify_tol(1)


def test_lowering_degrees(t16):
    tbl, _ = t16
    d2 = lowering_data(tbl, 2)
    assert len(d2.C) == 3 and len(d2.D) == 2
    for n in (3, 7, 12):
        data = lowering_data(tbl, n)
        assert len(data.C) == 4 and len(data.D) == 3
        want = 4 * tbl.z * tbl.a[n + 1]
        assert abs(data.C[3] - want) <= CTX.verify_tol(want)


def test_lowering_guards(t16):
    tbl, _ = t16
    with pytest.raises(IndexError):
        lowering_data(tbl, 1)
    for n_max in (1, tbl.n_max - 1):
        with pytest.raises(IndexError):
            lowering_residuals(tbl, n_max, recurrence_passes(tbl, tbl.n_max, [mp.mpf(1)]))


# ---------------------------------------------------------------------------
# second-order ODEs, both routes
# ---------------------------------------------------------------------------

def test_holonomic_Dn(t16):
    tbl, _ = t16
    for n in (3, 6, 10):
        passes = grid_passes(tbl, n, n + 2, count=16)
        assert lowering_residuals(tbl, n, passes)[2][-1] <= CTX.verify_tol(1)


def test_holonomic_chen(t16):
    tbl, _ = t16
    for n in (1, 2, 5, 12):
        assert ladder_residuals(tbl, n, grid_passes(tbl, n, n, count=16))[n - 1][2] \
            <= CTX.verify_tol(1)


def test_ode_routes_agree_on_common_target(t16):
    # D_n annihilates P_{n+1}; the ladder ODE at index n+1 does too.  Same
    # samples, same polynomial, both residuals at roundoff.
    tbl, _ = t16
    for n in (3, 6):
        passes = grid_passes(tbl, n + 1, n + 2, count=12)
        r_low = lowering_residuals(tbl, n, passes)[2][-1]
        r_chen = ladder_residuals(tbl, n + 1, passes)[n][2]
        assert r_low <= CTX.verify_tol(1)
        assert r_chen <= CTX.verify_tol(1)


def test_chen_guards(t16):
    tbl, _ = t16
    for n in (0, tbl.n_max - 1):
        with pytest.raises(IndexError):
            ladder_residuals(tbl, n, recurrence_passes(tbl, n, [mp.mpf(1)]))
    with pytest.raises(DomainError):
        ladder_residuals(tbl, 2, recurrence_passes(tbl, 2, [mp.mpf(0)]))


# ---------------------------------------------------------------------------
# the shared evaluations against the separate routes they replaced
# ---------------------------------------------------------------------------

def over_x(num, x):
    """N(x)/x and its slope (N' - N/x)/x in mpf at the caller's precision,
    in the order of operators._over_x."""
    p, d = horner_d(num, x)
    v = p / x
    return v, (d - v) / x


def lowering_at(data, x):
    """(C, D, A, B, A', B') of data in mpf at the caller's precision, in the
    order of operators._lowering_at."""
    (c, dc), (d, dd) = horner_d(data.C, x), horner_d(data.D, x)
    A, B = x / c, d / c
    return c, d, A, B, (1 - A * dc) / c, (dd - B * dc) / c


def _compat_ref(tbl, n, x_samples):
    """Both compatibility residuals, each ladder function built and
    evaluated on its own: the reference for ladder_residuals[:2]."""
    A_n = ladder_A(tbl, n)
    A_up = ladder_A(tbl, n + 1)
    A_dn = ladder_A(tbl, n - 1)
    B_n = ladder_B(tbl, n)
    B_up = ladder_B(tbl, n + 1)
    r1 = mp.mpf(0)
    r2 = mp.mpf(0)
    with tbl.workprec():
        f = 4 * tbl.z
        for x in x_samples:
            at = lambda num: over_x(num, x)[0]
            vp = f * x ** 3
            t1 = [at(B_up), at(B_n), (x - tbl.b[n]) * at(A_n), vp]
            res1 = t1[0] + t1[1] - t1[2] + t1[3]
            s1 = sum(abs(v) for v in t1) + 1
            t2 = [tbl.a[n + 1] * at(A_up), tbl.a[n] * at(A_dn),
                  (x - tbl.b[n]) * (at(B_up) - at(B_n))]
            res2 = t2[0] - t2[1] - 1 - t2[2]
            s2 = sum(abs(v) for v in t2) + 1
            r1 = max(r1, abs(res1) / s1)
            r2 = max(r2, abs(res2) / s2)
    return r1, r2


def _chen_ref(tbl, n, x_samples):
    """The eliminated-ODE residual on its own builds: the reference for
    ladder_residuals[2]."""
    A_n = ladder_A(tbl, n)
    A_dn = ladder_A(tbl, n - 1)
    B_n = ladder_B(tbl, n)
    with tbl.workprec():
        f = 4 * tbl.z
        worst = mp.mpf(0)
        for x in x_samples:
            y, y1, y2 = recurrence_passes(tbl, n, [x])[0][n]
            vA, dA = over_x(A_n, x)
            logd = dA / vA
            vB, dB = over_x(B_n, x)
            vp = f * x ** 3
            S = -vp - logd
            Q = dB - vB * logd - vB * (vp + vB) + tbl.a[n] * vA * over_x(A_dn, x)[0]
            terms = (y2, S * y1, Q * y)
            scale = sum(abs(t) for t in terms) + 1
            worst = max(worst, abs(terms[0] + terms[1] + terms[2]) / scale)
        return worst


def bits_of(values):
    return tuple(v._mpf_ for v in values)


@pytest.mark.parametrize("z", [mp.mpf(1) / 4, mp.mpf(1), mp.mpf(4)])
def test_shared_evaluations_match_separate_routes(z):
    # one range call shares each evaluation over every degree and identity
    # and gives each degree the separate routes' bits; lowering and raising,
    # sampled on the shared passes, hold as the coefficient-level references do
    tbl = chebyshev_coeffs(z, 14, CTX)
    polys = monic_polys(tbl, 14)
    for count in (8, 16):
        xs = sample_grid(13, z, CTX, count=count)
        got = ladder_residuals(tbl, 12, recurrence_passes(tbl, 14, xs))
        for n in range(1, 13):
            want = (*_compat_ref(tbl, n, xs), _chen_ref(tbl, n, xs))
            assert bits_of(got[n - 1]) == bits_of(want), (count, n)
    for n in range(2, 13):
        data = lowering_data(tbl, n)
        for res, scale in (lowering_ref(tbl, polys, data), raising_ref(tbl, polys, data)):
            assert res <= CTX.verify_tol(scale)
    for res in lowering_residuals(tbl, 12, grid_passes(tbl, 13, 14))[:2]:
        assert max(res) <= CTX.verify_tol(1)


# ---------------------------------------------------------------------------
# the sampled records, run on images, against the same expressions in mpf
# ---------------------------------------------------------------------------

def _scaled_mpf(residual, terms):
    return abs(residual) / (sum(abs(t) for t in terms) + 1)


def _structure_mpf(tbl, n, passes):
    coeffs = structure_coeffs(tbl, n)
    with tbl.workprec():
        worst = mp.mpf(0)
        for ps in passes:
            p, d, _ = ps[n + 1]
            terms = [ps.x * d, (n + 1) * p] + [c * ps[n - j][0]
                                               for j, c in enumerate(coeffs) if n - j >= 0]
            worst = max(worst, _scaled_mpf(terms[0] - sum(terms[1:]), terms))
        return worst


def _lowering_raising_mpf(tbl, data, passes):
    n = data.n
    a_up, b_up = tbl.a[n + 1], tbl.b[n + 1]
    with tbl.workprec():
        low = up = mp.mpf(0)
        for ps in passes:
            x = ps.x
            p, d, _ = ps[n + 1]
            C = horner(data.C, x)
            t1 = (x * d, horner(data.D, x) * p, C * ps[n][0])
            t2 = (a_up * t1[0], a_up * t1[1], (x - b_up) * C * p, C * ps[n + 2][0])
            low = max(low, _scaled_mpf(t1[0] + t1[1] - t1[2], t1))
            up = max(up, _scaled_mpf(t2[2] - t2[0] - t2[1] - t2[3], t2))
        return low, up


def _holonomic_mpf(tbl, prev, data, passes):
    n = data.n
    with tbl.workprec():
        an, bn = tbl.a[n], tbl.b[n]
        worst = mp.mpf(0)
        for ps in passes:
            x = ps.x
            y, y1, y2 = ps[n + 1]
            An_x, Bn_x, dA, dB = lowering_at(data, x)[2:]
            Ap_x, Bp_x = lowering_at(prev, x)[2:4]
            mid = an * Bp_x - x + bn
            c2 = an * An_x * Ap_x
            c1 = An_x * mid + an * Ap_x * (dA + Bn_x)
            c0 = an * dB * Ap_x + Bn_x * mid + 1
            terms = (c2 * y2, c1 * y1, c0 * y)
            worst = max(worst, _scaled_mpf(terms[0] + terms[1] + terms[2], terms))
        return worst


def _confluent_mpf(tbl, n, passes):
    with tbl.workprec():
        worst = mp.mpf(0)
        for ps in passes:
            left = mp.mpf(0)
            for k in range(n + 1):
                left += ps[k][0] ** 2 / tbl.h[k]
            p, d, _ = ps[n + 1]
            p_prev, d_prev, _ = ps[n]
            right = (d * p_prev - d_prev * p) / tbl.h[n]
            worst = max(worst, abs(left - right) / abs(left))
        return worst


@pytest.mark.parametrize("n_max", [8, 32])
@pytest.mark.parametrize("z", [mp.mpf(1) / 4, mp.mpf(1), mp.mpf(4)])
def test_sampled_records_keep_the_mpf_bits(z, n_max):
    # each record rounds every operation on images as its mpf expression
    # does, at default bits and on the one grid and pass verify runs them
    # on, one range call per function; at n_max 32 the samples' cube x**3 is
    # past the 1000 bits below which mpmath computes it exactly
    ctx = PrecisionContext(default_bits(n_max))
    tbl = chebyshev_coeffs(z, n_max + 2, ctx)
    xs = sample_grid(n_max + 1, z, ctx, count=8)
    passes = recurrence_passes(tbl, n_max + 2, xs)
    lowering = [lowering_data(tbl, n) for n in range(2, n_max + 1)]
    structure = structure_residual(tbl, n_max, passes)
    confluent = confluent_check(tbl, n_max, passes)
    ladder = ladder_residuals(tbl, n_max, passes)
    low, up, composed = lowering_residuals(tbl, n_max, passes)
    for n in range(n_max + 1):
        got = [structure[n], confluent[n]]
        want = [_structure_mpf(tbl, n, passes), _confluent_mpf(tbl, n, passes)]
        if n >= 1:
            got += ladder[n - 1]
            want += [*_compat_ref(tbl, n, xs), _chen_ref(tbl, n, xs)]
        if n >= 2:
            data = lowering[n - 2]
            got += [low[n - 2], up[n - 2]]
            want += _lowering_raising_mpf(tbl, data, passes)
        if n >= 3:
            got.append(composed[n - 3])
            want.append(_holonomic_mpf(tbl, lowering[n - 3], data, passes))
        assert bits_of(got) == bits_of(want), n


def test_ladder_residuals_evaluate_each_function_once(t16, monkeypatch):
    # one Horner pass per polynomial and sample gives its value and slope:
    # over degrees 1..n_max the numerators of calA_0..calA_{n_max+1} and
    # calB_1..calB_{n_max+1} for all three ladder identities of every
    # degree, and over degrees 2..n_max each C_k and D_k for lowering,
    # raising and the composed ODE of degrees k and k + 1
    tbl, _ = t16
    calls = []
    real = operators._horner_d

    def counted(cs, x, bits):
        calls.append((cs, x))
        return real(cs, x, bits)

    monkeypatch.setattr(operators, "_horner_d", counted)
    n_max = 12
    passes = grid_passes(tbl, n_max + 1, n_max + 2)
    ladder_residuals(tbl, n_max, passes)
    assert len(calls) == ((n_max + 2) + (n_max + 1)) * len(passes)
    assert len(set(calls)) == len(calls)
    calls.clear()
    lowering_residuals(tbl, n_max, passes)
    assert len(calls) == 2 * (n_max - 1) * len(passes)
    assert len(set(calls)) == len(calls)


@pytest.mark.parametrize("z", [mp.mpf(1) / 4, mp.mpf(1), mp.mpf(4)])
def test_slopes_match_the_quotient_rule(z):
    # the slopes of calA_n, calB_n (N/x) and of the lowering A_k = x/C_k,
    # B_k = D_k/C_k, read from one Horner pass and the quotient rule on its
    # values, against the symbolic quotient rule at the tests' precision,
    # each scaled by the magnitudes of its own terms, on verify's grid
    ctx = PrecisionContext(default_bits(12))
    tbl = chebyshev_coeffs(z, 14, ctx)
    bits = ctx.bits + RESIDUAL_GUARD_BITS
    over = [mp.mpf(0), mp.mpf(1)]
    ladder = [ladder_A(tbl, n) for n in range(13)] + [ladder_B(tbl, n) for n in range(1, 13)]
    lowering = [lowering_data(tbl, n) for n in range(2, 13)]
    checked = 0
    for x in sample_grid(13, z, ctx, count=8):
        xi = _image(x)
        for num in ladder:
            got = operators._over_x(tuple(map(_image, num)), xi, bits)[1]
            v, d = horner(num, x) / x, horner(poly_diff(list(num)), x)
            assert abs(_mpf(got) - quotient_slope(num, over, x)) \
                <= ctx.verify_tol((abs(d) + abs(v)) / x)
            checked += 1
        for data in lowering:
            got = operators._lowering_at(*(tuple(map(_image, cs)) for cs in (data.C, data.D)),
                                         xi, bits)[4:]
            (c, dc), (dv, dd) = horner_d(data.C, x), horner_d(data.D, x)
            scales = ((1 + abs(x * dc / c)) / abs(c), (abs(dd) + abs(dv * dc / c)) / abs(c))
            for g, want, scale in zip(got, (quotient_slope(over, data.C, x),
                                            quotient_slope(data.D, data.C, x)), scales):
                assert abs(_mpf(g) - want) <= ctx.verify_tol(scale)
                checked += 1
    assert checked == 8 * (25 + 2 * 11)


# ---------------------------------------------------------------------------
# confluent Christoffel-Darboux and the Lax block
# ---------------------------------------------------------------------------

def test_confluent(t16):
    tbl, _ = t16
    passes = recurrence_passes(tbl, 10, log_grid("0.05", 3, 12))
    # n = 0 is the identity 1/h_0 = P_1' P_0/h_0
    res = confluent_check(tbl, 9, passes)
    assert len(res) == 10
    for n in (0, 4, 9):
        assert res[n] <= CTX.verify_tol(1)


def test_lax_block(t16):
    tbl, _ = t16
    assert lax_block_check(tbl, 12) <= CTX.verify_tol(1)


def test_lax_block_M20_other_z():
    ctx = CTX
    tbl = chebyshev_coeffs(4, 19, ctx)
    assert lax_block_check(tbl, 20) <= ctx.verify_tol(1)


def test_lax_guards(t16):
    tbl, _ = t16
    with pytest.raises(DomainError):
        lax_block_check(tbl, 9)
    with pytest.raises(DomainError):
        lax_block_check(tbl, tbl.n_max + 2)


# ---------------------------------------------------------------------------
# sample grid and cross-precision stability
# ---------------------------------------------------------------------------

def test_sample_grid_properties():
    xs = sample_grid(8, 1, count=16, ctx=CTX)
    assert len(xs) == 16
    assert all(x > 0 for x in xs)
    assert xs == sorted(xs)
    # endpoints survive the log/exp round trip up to rounding
    assert abs(xs[0] - mp.mpf("0.01")) <= CTX.verify_tol(mp.mpf("0.01"))


def test_residuals_stable_at_doubled_precision():
    for z in (mp.mpf("0.25"), mp.mpf(1), mp.mpf(4)):
        for bits in (256, 512):
            ctx = PrecisionContext(bits)
            tbl = chebyshev_coeffs(z, 8, ctx)
            passes = recurrence_passes(tbl, 7, sample_grid(5, z, count=8, ctx=ctx))
            assert ladder_residuals(tbl, 5, passes)[4][2] <= ctx.verify_tol(1)
            assert lowering_residuals(tbl, 5, passes)[2][-1] <= ctx.verify_tol(1)
            res, scale = identity_i_residual(tbl, 4)
            assert abs(res) <= ctx.verify_tol(scale)
