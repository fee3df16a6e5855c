from __future__ import annotations

import os
from fractions import Fraction

import mpmath as mp
import pytest
from conftest import assert_no_child, deadline

from tfreud import recurrence
from tfreud.kernel import (
    ConvergenceError,
    DomainError,
    PrecisionContext,
    PrecisionExhaustionError,
    default_bits,
)
from tfreud.moments import moment, moment_sequence
from tfreud.recurrence import (
    RecurrenceTable,
    asymptotic_constant_residuals,
    asymptotic_ratio,
    chebyshev_coeffs,
    h_scaling_check,
    internal_bits_for,
    lf_forward,
    lf_residual_1,
    lf_residual_2,
    lf_residual_I,
    scaling_check,
)


def gram_schmidt_table(z, n_max, bits):
    """Independent oracle: orthogonalize 1, x, .., x^n against the moment
    inner product directly, then read off b_k = <x P_k, P_k>/h_k and
    a_k = h_k/h_{k-1}.  O(n^4) and numerically naive, so small n only."""
    ctx = PrecisionContext(bits)
    with mp.workprec(bits):
        mu = [moment(l, z, ctx) for l in range(2 * n_max + 2)]

        def ip(p, q):
            return mp.fsum(ci * cj * mu[i + j]
                           for i, ci in enumerate(p) for j, cj in enumerate(q))

        polys = [[mp.mpf(1)]]
        for k in range(1, n_max + 1):
            cand = [mp.mpf(0)] * k + [mp.mpf(1)]
            for j in range(k):
                c = ip(cand, polys[j]) / ip(polys[j], polys[j])
                for i, pc in enumerate(polys[j]):
                    cand[i] -= c * pc
            polys.append(cand)
        h = [ip(p, p) for p in polys]
        a = [mp.mpf(0)] + [h[k] / h[k - 1] for k in range(1, n_max + 1)]
        b = [ip([mp.mpf(0)] + p, p) / h[k] for k, p in enumerate(polys)]
    return a, b, h


def test_b0_gamma_ratio():
    ctx = PrecisionContext(192)
    tbl = chebyshev_coeffs(1, 2, ctx)
    with mp.workprec(260):
        want = mp.gamma(mp.mpf(1) / 2) / mp.gamma(mp.mpf(1) / 4)
    assert abs(tbl.b[0] - want) <= ctx.verify_tol(1)
    assert abs(tbl.b[0] - mp.mpf("0.4889")) < mp.mpf("5e-5")


def test_a1_gram_determinant():
    ctx = PrecisionContext(192)
    tbl = chebyshev_coeffs(1, 2, ctx)
    mu = [moment(l, 1, ctx) for l in range(3)]
    want = mu[2] / mu[0] - (mu[1] / mu[0]) ** 2
    assert abs(tbl.a[1] - want) <= ctx.verify_tol(1)


def test_b0_z_scaling_spot():
    ctx = PrecisionContext(160)
    t16 = chebyshev_coeffs(16, 1, ctx)
    t1 = chebyshev_coeffs(1, 1, ctx)
    assert abs(t16.b[0] - t1.b[0] / 2) <= ctx.verify_tol(1)


def test_table_invariants():
    ctx = PrecisionContext(192)
    tbl = chebyshev_coeffs(mp.mpf("0.5"), 16, ctx)
    assert tbl.n_max == 16
    assert tbl.a[0] == 0
    assert all(v > 0 for v in tbl.a[1:])
    assert all(v > 0 for v in tbl.b)
    for n in range(1, 17):
        assert abs(tbl.h[n] - tbl.a[n] * tbl.h[n - 1]) <= ctx.verify_tol(tbl.h[n - 1])
    assert tbl.h[0] == moment(0, mp.mpf("0.5"), ctx)
    assert tbl.T(0) == 0


def test_accessor_guards():
    ctx = PrecisionContext(128)
    tbl = chebyshev_coeffs(1, 4, ctx)
    with pytest.raises(IndexError):
        tbl.R(4)
    with pytest.raises(IndexError):
        tbl.T(5)
    with pytest.raises(IndexError):
        tbl.sigma(6)
    assert tbl.sigma(0) == 0
    with pytest.raises(DomainError):
        RecurrenceTable(mp.mpf(1), (mp.mpf(1),), (mp.mpf(1),), (mp.mpf(1),), ctx)


def test_against_gram_schmidt_oracle():
    ctx = PrecisionContext(128)
    tbl = chebyshev_coeffs(1, 6, ctx)
    a, b, h = gram_schmidt_table(mp.mpf(1), 6, 4 * ctx.bits)
    for n in range(7):
        assert abs(tbl.a[n] - a[n]) <= ctx.verify_tol(max(1, a[n]))
        assert abs(tbl.b[n] - b[n]) <= ctx.verify_tol(max(1, b[n]))
        assert abs(tbl.h[n] - h[n]) <= ctx.verify_tol(max(1, h[n]))


@pytest.mark.parametrize("z", ["0.25", "1", "4"])
def test_lf_residuals_small_table(z):
    ctx = PrecisionContext(256)
    tbl = chebyshev_coeffs(mp.mpf(z), 14, ctx)
    for n in range(0, 13):
        assert abs(lf_residual_1(tbl, n)[0]) <= ctx.verify_tol(2 * n + 1)
        if n >= 1:
            assert abs(lf_residual_2(tbl, n)[0]) <= ctx.verify_tol(tbl.b[n])
        res, scale = lf_residual_I(tbl, n)
        assert abs(res) <= ctx.verify_tol(scale)


def test_lf_index_guards():
    ctx = PrecisionContext(128)
    tbl = chebyshev_coeffs(1, 6, ctx)
    with pytest.raises(IndexError):
        lf_residual_1(tbl, 5)
    with pytest.raises(IndexError):
        lf_residual_2(tbl, 0)
    with pytest.raises(IndexError):
        lf_residual_I(tbl, -1)


def test_lf_forward_matches_then_diverges():
    ctx = PrecisionContext(256)
    ref = chebyshev_coeffs(1, 12, ctx)
    fwd, div = lf_forward((ref.b[0], ref.a[1], ref.b[1]), 12, ref)
    assert div is not None and div >= 4
    for n in range(div):
        assert abs(fwd.a[n] - ref.a[n]) <= 1000 * ctx.verify_tol(max(1, ref.a[n]))
        assert abs(fwd.b[n] - ref.b[n]) <= 1000 * ctx.verify_tol(ref.b[n])


def test_lf_forward_perturbed_seed_diverges_earlier():
    ctx = PrecisionContext(256)
    ref = chebyshev_coeffs(1, 12, ctx)
    _, div_clean = lf_forward((ref.b[0], ref.a[1], ref.b[1]), 12, ref)
    # the perturbed run collapses (a_n <= 0) past n = 7, so keep it short;
    # its divergence index is hit long before that
    _, div_pert = lf_forward((ref.b[0], ref.a[1] + mp.mpf(10) ** -10, ref.b[1]), 5, ref)
    assert div_pert is not None and div_pert < div_clean


def test_lf_forward_scaled_seed():
    # the z=16 forward table is the elementwise-scaled z=1 forward table
    ctx = PrecisionContext(256)
    ref1 = chebyshev_coeffs(1, 10, ctx)
    ref16 = chebyshev_coeffs(16, 10, ctx)
    fwd16, div16 = lf_forward((ref16.b[0], ref16.a[1], ref16.b[1]), 10, ref16)
    fwd1, _ = lf_forward((ref1.b[0], ref1.a[1], ref1.b[1]), 10, ref1)
    upto = div16 if div16 is not None else 11
    for n in range(min(upto, 8)):
        assert abs(fwd16.a[n] - fwd1.a[n] / 4) <= 2000 * ctx.verify_tol(max(1, fwd1.a[n]))
        assert abs(fwd16.b[n] - fwd1.b[n] / 2) <= 2000 * ctx.verify_tol(fwd1.b[n])


def test_lf_forward_instability_error():
    ctx = PrecisionContext(128)
    with pytest.raises(ConvergenceError):
        lf_forward((mp.mpf(10), mp.mpf("1e-5"), mp.mpf(10)), 8, chebyshev_coeffs(1, 8, ctx))


def test_asymptotic_constants_exact():
    res = asymptotic_constant_residuals()
    assert res["quadratic_full"] == Fraction(0)
    assert res["quadratic_reduced"] == Fraction(0)
    assert res["quartic"] == Fraction(0)


def test_asymptotic_ratio_trend():
    ctx = PrecisionContext(160)
    tbl = chebyshev_coeffs(1, 64, ctx)
    devs = []
    for n in (16, 32, 64):
        ra, rb = asymptotic_ratio(tbl, n)
        devs.append((abs(ra - 1), abs(rb - 1)))
    assert devs[0][0] > devs[1][0] > devs[2][0]
    assert devs[0][1] > devs[1][1] > devs[2][1]
    assert devs[2][0] < mp.mpf("0.1") and devs[2][1] < mp.mpf("0.1")


def test_asymptotic_ratio_guard():
    ctx = PrecisionContext(128)
    tbl = chebyshev_coeffs(1, 4, ctx)
    with pytest.raises(IndexError):
        asymptotic_ratio(tbl, 0)


@pytest.mark.parametrize("z", ["0.25", "4", "16"])
def test_scaling_check_grid(z):
    ctx = PrecisionContext(192)
    tbl_1 = chebyshev_coeffs(1, 21, ctx)
    tbl_z = chebyshev_coeffs(mp.mpf(z), 21, ctx)
    for n in (1, 5, 20):
        da, db = scaling_check(tbl_z, tbl_1, n)
        assert abs(da) <= ctx.verify_tol(1)
        assert abs(db) <= ctx.verify_tol(1)


def test_scaling_check_identity():
    ctx = PrecisionContext(128)
    tbl = chebyshev_coeffs(1, 5, ctx)
    da, db = scaling_check(tbl, tbl, 3)
    assert da == 0 and db == 0


@pytest.mark.parametrize("z,n", [(4, 0), (4, 3), ("0.5", 10)])
def test_h_scaling(z, n):
    ctx = PrecisionContext(192)
    tbl_z = chebyshev_coeffs(mp.mpf(z), n, ctx)
    tbl_1 = chebyshev_coeffs(1, n, ctx)
    assert abs(h_scaling_check(tbl_z, tbl_1, n)) <= ctx.verify_tol(1)


def test_sigma_difference_is_b():
    ctx = PrecisionContext(160)
    tbl = chebyshev_coeffs(1, 10, ctx)
    for n in range(10):
        assert abs((tbl.sigma(n + 1) - tbl.sigma(n)) - tbl.b[n]) <= ctx.verify_tol(tbl.sigma(n + 1))


def test_sigma_z_derivative_fd():
    # 4z d(sigma_n)/dz + sigma_n = 0, O(h^2) by step halving
    ctx = PrecisionContext(160)
    n, zv = 6, mp.mpf(2)
    h = zv * mp.mpf(2) ** (-ctx.bits // 4)
    res = []
    for step in (h, h / 2):
        sp = chebyshev_coeffs(zv + step, n, ctx).sigma(n)
        sm = chebyshev_coeffs(zv - step, n, ctx).sigma(n)
        s0 = chebyshev_coeffs(zv, n, ctx).sigma(n)
        res.append(4 * zv * (sp - sm) / (2 * step) + s0)
    assert abs(res[0]) < mp.mpf("1e-12")
    ratio = res[0] / res[1]
    assert mp.mpf("3.8") < ratio < mp.mpf("4.2")


def test_precision_exhaustion_detected(monkeypatch):
    ctx = PrecisionContext(64)
    monkeypatch.setattr(recurrence, "internal_bits_for", lambda ctx, n_max: 64)
    with pytest.raises(PrecisionExhaustionError) as exc:
        chebyshev_coeffs(1, 40, ctx)
    assert 0 < exc.value.index <= 40


def _chebyshev_mpf(z, n_max, ctx):
    """chebyshev_coeffs with its elimination loop in mpf: the oracle for the
    loop on integer images.  Returns (a, b, h) unrounded."""
    ictx = PrecisionContext(max(64, recurrence.internal_bits_for(ctx, n_max)))
    with ictx.workprec(16):
        L = 2 * n_max + 1
        mu = moment_sequence(mp.mpf(z), L, ictx)
        max_mag = max(mp.mag(m) for m in mu)
        floor = max_mag - ictx.bits + 8
        a, b, h = [mp.mpf(0)], [mu[1] / mu[0]], [mu[0]]
        prev, cur = [mp.mpf(0)] * (L + 1), list(mu)
        for k in range(n_max):
            new = [mp.mpf(0)] * (L + 1)
            for l in range(k + 1, L - k):
                new[l] = cur[l + 1] - b[k] * cur[l] - a[k] * prev[l]
                m = mp.mag(new[l])
                if m > max_mag:
                    max_mag = m
                    floor = max_mag - ictx.bits + 8
            hk1 = new[k + 1]
            if hk1 <= 0 or mp.mag(hk1) < floor:
                raise PrecisionExhaustionError("exhausted", k + 1)
            a.append(hk1 / cur[k])
            b.append(new[k + 2] / hk1 - cur[k + 1] / cur[k])
            h.append(hk1)
            prev, cur = cur, new
        return a, b, h


@pytest.mark.parametrize("n_max, bits", [(16, None), (160, None), (200, 96)])
def test_elimination_matches_the_mpf_loop(n_max, bits):
    # the integer-image loop rounds every step as mpf does: the same bits,
    # also on the 96-bit n = 200 table whose top rows are mostly roundoff
    ctx = PrecisionContext(bits or default_bits(n_max))
    tbl = chebyshev_coeffs(1, n_max, ctx)
    want = _chebyshev_mpf(1, n_max, ctx)
    for got, ref in zip((tbl.a, tbl.b, tbl.h), want):
        assert [v._mpf_ for v in got] == [ctx.round(v)._mpf_ for v in ref]


@pytest.mark.parametrize("n_max, bits", [(128, None), (192, None), (200, 96)])
def test_reserve_keeps_every_row(monkeypatch, n_max, bits):
    # the moment map loses about 4.2 bits per degree: every entry must match
    # a table built with a 7.0-bit reserve at the same storage bits (with a
    # 3.5-bit reserve the top rows of all three tables did not)
    ctx = PrecisionContext(bits or default_bits(n_max))
    tbl = chebyshev_coeffs(1, n_max, ctx)
    monkeypatch.setattr(recurrence, "LOSS_BITS_PER_DEGREE", 7.0)
    ref = chebyshev_coeffs(1, n_max, ctx)
    for got, want in ((tbl.a, ref.a), (tbl.b, ref.b), (tbl.h, ref.h)):
        assert [k for k, (g, w) in enumerate(zip(got, want))
                if abs(g - w) > ctx.verify_tol(w)] == []


def test_elimination_exhausts_where_the_mpf_loop_does(monkeypatch):
    ctx = PrecisionContext(64)
    monkeypatch.setattr(recurrence, "internal_bits_for", lambda ctx, n_max: 64)
    with pytest.raises(PrecisionExhaustionError) as got:
        chebyshev_coeffs(1, 40, ctx)
    with pytest.raises(PrecisionExhaustionError) as want:
        _chebyshev_mpf(1, 40, ctx)
    assert got.value.index == want.value.index


@pytest.fixture
def split_rows(monkeypatch):
    """chebyshev_coeffs splits the rows of every table from degree 1 on, as
    on a box with two CPUs, whatever this one has; yields the list of calls
    to _upper_rows, one per helper forked."""
    forks = []
    upper_rows = recurrence._upper_rows

    def counted(*args):
        forks.append(args[1:3])
        return upper_rows(*args)

    monkeypatch.setattr(recurrence, "SPLIT_MIN_DEGREE", 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(recurrence, "_upper_rows", counted)
    yield forks


def test_split_exhausts_where_the_mpf_loop_does(monkeypatch, split_rows):
    # the split rows keep the guard in this process: it raises at the mpf
    # loop's index, and the helper is reaped on the way out
    ctx = PrecisionContext(64)
    monkeypatch.setattr(recurrence, "internal_bits_for", lambda ctx, n_max: 64)
    with pytest.raises(PrecisionExhaustionError) as got:
        chebyshev_coeffs(1, 40, ctx)
    assert split_rows == [(41, 81)]
    assert_no_child()
    with pytest.raises(PrecisionExhaustionError) as want:
        _chebyshev_mpf(1, 40, ctx)
    assert got.value.index == want.value.index


def test_split_matches_the_mpf_loop_and_reaps_its_helper(split_rows):
    ctx = PrecisionContext(default_bits(24))
    tbl = chebyshev_coeffs(1, 24, ctx)
    assert split_rows == [(25, 49)]
    assert_no_child()
    for got, ref in zip((tbl.a, tbl.b, tbl.h), _chebyshev_mpf(1, 24, ctx)):
        assert [v._mpf_ for v in got] == [ctx.round(v)._mpf_ for v in ref]


def test_split_raises_when_the_helper_fails(monkeypatch, split_rows):
    # the helper's row function raises in the helper only: the parent reads
    # end of file and raises, where it would otherwise wait for the row
    parent, row = os.getpid(), recurrence._row

    def failing(*args):
        if os.getpid() != parent:
            raise ArithmeticError("fault injected into the helper")
        return row(*args)

    monkeypatch.setattr(recurrence, "_row", failing)
    with deadline(30, "chebyshev_coeffs waited on a dead helper"), \
            pytest.raises(RuntimeError, match="helper"):
        chebyshev_coeffs(1, 24, PrecisionContext(default_bits(24)))
    assert split_rows
    assert_no_child()


def test_split_builds_whole_rows_where_fork_fails(monkeypatch, split_rows):
    def refused():
        raise OSError("fork refused")

    monkeypatch.setattr(os, "fork", refused)
    ctx = PrecisionContext(default_bits(24))
    tbl = chebyshev_coeffs(1, 24, ctx)
    assert split_rows == [(25, 49)]
    for got, ref in zip((tbl.a, tbl.b, tbl.h), _chebyshev_mpf(1, 24, ctx)):
        assert [v._mpf_ for v in got] == [ctx.round(v)._mpf_ for v in ref]


def test_split_guard_reads_the_helper_top(monkeypatch, split_rows):
    # no table measured has an entry above its largest moment, so the helper
    # is made to report one: the guard's floor must rise and raise at row 1
    parent, row = os.getpid(), recurrence._row

    def inflated(*args):
        out, top = row(*args)
        return out, top + (10 ** 6 if os.getpid() != parent else 0)

    monkeypatch.setattr(recurrence, "_row", inflated)
    with pytest.raises(PrecisionExhaustionError) as exc:
        chebyshev_coeffs(1, 24, PrecisionContext(default_bits(24)))
    assert exc.value.index == 1
    assert_no_child()


@pytest.mark.parametrize("z", ["0.25", "1", "4"])
def test_table_does_not_depend_on_the_cpu_count(monkeypatch, z):
    # two CPUs split the rows of a degree-160 table and one CPU does not;
    # the bits are the same
    ctx = PrecisionContext(default_bits(160))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    assert recurrence._splits(160)
    split = chebyshev_coeffs(mp.mpf(z), 160, ctx)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert not recurrence._splits(160)
    serial = chebyshev_coeffs(mp.mpf(z), 160, ctx)
    for got, want in ((split.a, serial.a), (split.b, serial.b), (split.h, serial.h)):
        assert [v._mpf_ for v in got] == [v._mpf_ for v in want]


@pytest.mark.parametrize("z, n_max", [("0.0625", 16), ("0.1", 16), ("0.2", 40), ("3", 16),
                                      ("4", 40), ("16", 16), ("1000", 16), ("1e-6", 16)])
def test_scaled_moments_keep_the_mpf_loop_bits(z, n_max):
    # the elimination runs on the moments scaled by 2^((j+1)t), t != 0 at
    # every z here but 3, and scales a, b, h back: powers of two scale each
    # rounded step exactly, so the table has the unscaled loop's bits
    ctx = PrecisionContext(default_bits(n_max))
    tbl = chebyshev_coeffs(z, n_max, ctx)
    for got, ref in zip((tbl.a, tbl.b, tbl.h), _chebyshev_mpf(z, n_max, ctx)):
        assert [v._mpf_ for v in got] == [ctx.round(v)._mpf_ for v in ref]


def test_split_scaled_moments_keep_the_mpf_loop_bits(split_rows):
    ctx = PrecisionContext(default_bits(24))
    tbl = chebyshev_coeffs("1000", 24, ctx)
    assert split_rows == [(25, 49)]
    assert_no_child()
    for got, ref in zip((tbl.a, tbl.b, tbl.h), _chebyshev_mpf("1000", 24, ctx)):
        assert [v._mpf_ for v in got] == [ctx.round(v)._mpf_ for v in ref]


@pytest.mark.parametrize("z, n_max", [("1e-30", 16), ("1e200", 16), ("1e-400", 3)])
def test_extreme_z_tables_follow_the_scaling_law(z, n_max):
    # with the unscaled moments the guard raised on these well-conditioned
    # tables; they follow a_n(z) = z^(-1/2) a_n(1), b_n(z) = z^(-1/4) b_n(1)
    # and h_n(z) = z^(-(2n+1)/4) h_n(1)
    ctx = PrecisionContext(default_bits(n_max))
    tbl, one = chebyshev_coeffs(z, n_max, ctx), chebyshev_coeffs(1, n_max, ctx)
    s = mp.mpf(z) ** mp.mpf("0.25")
    tol = ctx.verify_tol(1)
    for n in range(n_max + 1):
        assert abs(tbl.b[n] * s / one.b[n] - 1) <= tol
        assert abs(tbl.h[n] * s ** (2 * n + 1) / one.h[n] - 1) <= tol
        if n:
            assert abs(tbl.a[n] * s ** 2 / one.a[n] - 1) <= tol


def test_internal_boost_does_not_change_values(monkeypatch):
    ctx = PrecisionContext(128)
    tbl = chebyshev_coeffs(1, 8, ctx)
    monkeypatch.setattr(recurrence, "internal_bits_for",
                        lambda ctx, n_max: internal_bits_for(ctx, n_max) + 256)
    boosted = chebyshev_coeffs(1, 8, ctx)
    for n in range(9):
        assert abs(tbl.a[n] - boosted.a[n]) <= ctx.verify_tol(max(1, tbl.a[n]))
        assert abs(tbl.b[n] - boosted.b[n]) <= ctx.verify_tol(tbl.b[n])


def test_determinism_same_inputs():
    ctx = PrecisionContext(128)
    t1 = chebyshev_coeffs(1, 8, ctx)
    t2 = chebyshev_coeffs(1, 8, ctx)
    assert t1.a == t2.a and t1.b == t2.b and t1.h == t2.h


def test_chebyshev_domain_errors():
    ctx = PrecisionContext(128)
    with pytest.raises(DomainError):
        chebyshev_coeffs(0, 4, ctx)
    with pytest.raises(DomainError):
        chebyshev_coeffs(1, -1, ctx)
