"""Zeros, the largest-zero bound, the limiting density, and electrostatics."""
from __future__ import annotations

import dataclasses
import hashlib
import os
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import assert_no_child, deadline, monic_polys
from mpmath import mp

import tfreud.zeros as zeros_module
from tfreud.cli import REF_ERRATA, REF_LARGEST, REF_SMALLEST
from tfreud import kernel
from tfreud.kernel import (ConvergenceError, DomainError, PrecisionContext, default_bits,
                           tridiag_eigenvalues)
from tfreud.operators import recurrence_passes
from tfreud.recurrence import chebyshev_coeffs
from tfreud.zeros import (
    DENSITY_CTX,
    DensityModel,
    ZeroSet,
    _fields,
    chebyshev_zeros,
    comparison_beta,
    density,
    density_cdf,
    density_closed_form,
    density_integral,
    density_normalization,
    electro_energy,
    empirical_density_distance,
    interlacing_margin,
    largest_zero_bound,
    ode_at_zeros_check,
    ptilde_zeros,
    stationarity_check,
    zero_scaling_check,
    zero_sweep,
    zeros,
)

CTX = PrecisionContext(256)


def round4(x) -> int:
    """Half-away-from-zero rounding to 4 decimals, returned in units of 1e-4."""
    return int(mp.floor(abs(x) * 10000 + mp.mpf("0.5")))


def ref4(s: str) -> int:
    return int(mp.nint(mp.mpf(s) * 10000))


@pytest.fixture(scope="module")
def tbl():
    return chebyshev_coeffs(1, 15, CTX)


@pytest.fixture(scope="module")
def zsets(tbl):
    return {n: zeros(tbl, n, CTX) for n in range(1, 15)}


def one_cpu(monkeypatch) -> None:
    """The process reports one CPU, so zero_sweep solves every degree
    itself: for tests that count what this process computes."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})


@pytest.fixture
def split_sweep(monkeypatch):
    """zero_sweep hands its top degrees to a forked helper from degree 2 on,
    as on a box with two CPUs, whatever this one has; yields the pids of
    the helpers forked, as this process sees them."""
    pids, fork = [], os.fork

    def counted():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(zeros_module, "SWEEP_SPLIT_MIN_DEGREE", 2)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(os, "fork", counted)
    yield pids


# ---------------------------------------------------------------------------
# ZeroSet and the eigenvalue route
# ---------------------------------------------------------------------------

def test_zero_set_validation():
    with pytest.raises(DomainError):
        ZeroSet(2, mp.mpf(1), (mp.mpf(1),))
    with pytest.raises(DomainError):
        ZeroSet(2, mp.mpf(1), (mp.mpf(2), mp.mpf(1)))
    with pytest.raises(DomainError):
        ZeroSet(1, mp.mpf(1), (mp.mpf(0),))


def test_zeros_degree_guard(tbl):
    with pytest.raises(IndexError):
        zeros(tbl, 0, CTX)
    with pytest.raises(IndexError):
        zeros(tbl, tbl.n_max + 1, CTX)


def test_x11_is_b0(tbl, zsets):
    x11 = zsets[1][0]
    assert abs(x11 - tbl.b[0]) <= CTX.verify_tol(tbl.b[0])
    closed = mp.gamma(mp.mpf("0.5")) / mp.gamma(mp.mpf("0.25"))
    assert abs(x11 - closed) / closed <= mp.mpf("1e-12")


def test_reference_table_4dp(zsets):
    for n in range(1, 15):
        got_small = round4(zsets[n][0])
        got_large = round4(zsets[n][n - 1])
        for kind, got in (("smallest", got_small), ("largest", got_large)):
            ref = ref4((REF_SMALLEST if kind == "smallest" else REF_LARGEST)[n - 1])
            if (kind, n) in REF_ERRATA:
                assert got != ref
                assert got == ref4(REF_ERRATA[(kind, n)])
            else:
                assert got == ref


def test_zeros_vanish_on_polynomial(tbl, zsets):
    polys = monic_polys(tbl, 12)
    for n in (5, 12):
        xs = zsets[n].values
        for x, ps in zip(xs, recurrence_passes(tbl, n, xs)):
            majorant = mp.fsum(abs(c) * x ** k for k, c in enumerate(polys[n]))
            assert abs(ps[n][0]) <= CTX.verify_tol(majorant)


@pytest.mark.parametrize("zq", ["0.25", "1", "4"])
def test_interlacing(zq):
    z = mp.mpf(zq)
    tbl = chebyshev_coeffs(z, 14, CTX)
    prev = zeros(tbl, 1, CTX)
    for n in range(2, 15):
        cur = zeros(tbl, n, CTX)
        assert interlacing_margin(cur, prev) > 0
        prev = cur


def _bits(zs):
    return [v._mpf_ for v in zs.values]


@pytest.mark.parametrize("zq, n_max", [("1", 16), ("16", 16), ("0.0625", 16), ("256", 16),
                                       ("0.00390625", 16), ("1", 40)])
def test_zero_sweep_matches_per_degree_bits(zq, n_max):
    # the sweep solves degree n in the brackets cut by degree n-1; it must
    # return bit for bit what the independent per-degree route returns
    ctx = PrecisionContext(default_bits(n_max))
    tbl = chebyshev_coeffs(mp.mpf(zq), n_max, ctx)
    sets = zero_sweep(tbl, n_max, ctx)
    assert [zs.n for zs in sets] == list(range(1, n_max + 1))
    for n, zs in enumerate(sets, 1):
        assert _bits(zs) == _bits(zeros(tbl, n, ctx)), n


def test_zero_sweep_guard(tbl):
    with pytest.raises(IndexError):
        zero_sweep(tbl, 0, CTX)
    with pytest.raises(IndexError):
        zero_sweep(tbl, tbl.n_max + 1, CTX)


@pytest.mark.parametrize("route", ["per-degree", "sweep"])
def test_newton_fallback_step_runs(tbl, zsets, route, monkeypatch):
    # the first Newton step of every polish, here the step of the ladder at
    # 150 bits, is made 2^64 times too long, so it leaves the bracket and
    # the fallback halves the bracket by the sign of P_n at its midpoint,
    # read through _sturm at the working precision; the bisection of
    # _separators is never entered from the polish, nor on the sweep route
    real_polish, real_d2 = kernel._polish, kernel._ttrr_d2
    real_sturm, real_separators = kernel._sturm, kernel._separators
    seen = {"fresh": False, "inside": False, "polish": 0, "fallback": 0, "separators": 0,
            "polish_separators": 0}
    per_zero = []

    def d2(nb, na, n, x, bits):
        out = real_d2(nb, na, n, x, bits)
        if seen["fresh"]:
            seen["fresh"] = False
            f, fp, fpp = out[-1]
            out[-1] = f, (fp[0], fp[1] - 64), (fpp[0], fpp[1] - 128)
        return out

    def sturm(*args):
        seen["fallback"] += seen["inside"]
        return real_sturm(*args)

    def polish(*args):
        seen["polish"] += 1
        seen.update(fresh=True, inside=True)
        before = seen["fallback"]
        try:
            return real_polish(*args)
        finally:
            seen["inside"] = False
            per_zero.append(seen["fallback"] - before)

    def separators(*args):
        seen["separators"] += 1
        seen["polish_separators"] += seen["inside"]
        return real_separators(*args)

    monkeypatch.setattr(kernel, "_ttrr_d2", d2)
    monkeypatch.setattr(kernel, "_sturm", sturm)
    monkeypatch.setattr(kernel, "_polish", polish)
    monkeypatch.setattr(kernel, "_separators", separators)
    one_cpu(monkeypatch)
    if route == "per-degree":
        got = [zeros(tbl, n, CTX) for n in range(2, 15)]
        assert seen["separators"] > 0
        assert seen["polish_separators"] == 0
    else:
        got = zero_sweep(tbl, 14, CTX)[1:]
        assert seen["separators"] == 0
    assert seen["polish"] == sum(range(2, 15))
    assert seen["fallback"] >= seen["polish"]
    assert min(per_zero) >= 1
    for zs in got:
        assert _bits(zs) == _bits(zsets[zs.n])


def test_sturm_counts_only_separate_the_eigenvalues(monkeypatch):
    # bisection stops as soon as every eigenvalue has a gap of its own, so
    # solving a degree on its own costs a few passes of _sturm per
    # eigenvalue, the polish's sign reads included
    ctx = PrecisionContext(384)
    t = chebyshev_coeffs(1, 16, ctx)
    counts = []
    real = kernel._sturm
    monkeypatch.setattr(kernel, "_sturm", lambda *a: counts.append(1) or real(*a))
    for n in range(1, 17):
        zeros(t, n, ctx)
    assert len(counts) <= 4 * sum(range(1, 17))


def test_interlacing_margin_guard(zsets):
    with pytest.raises(DomainError):
        interlacing_margin(zsets[5], zsets[3])


@given(st.integers(min_value=2, max_value=14))
@settings(max_examples=13, deadline=None)
def test_interlacing_property(zsets, n):
    assert interlacing_margin(zsets[n], zsets[n - 1]) > 0


def test_zero_scaling():
    def zero_set(z, n):
        return zeros(chebyshev_coeffs(z, n, CTX), n, CTX)

    assert zero_scaling_check(zero_set(16, 5), zero_set(1, 5), CTX) <= mp.mpf("1e-12")
    assert (zero_scaling_check(zero_set(mp.mpf(1) / 16, 10), zero_set(1, 10), CTX)
            <= mp.mpf("1e-12"))
    assert zero_scaling_check(zero_set(1, 7), zero_set(1, 7), CTX) == 0


def test_scaling_is_exact_halving():
    tbl16 = chebyshev_coeffs(16, 5, CTX)
    tbl1 = chebyshev_coeffs(1, 5, CTX)
    z16 = zeros(tbl16, 5, CTX)
    z1 = zeros(tbl1, 5, CTX)
    for a, b in zip(z16.values, z1.values):
        assert abs(2 * a - b) <= mp.mpf("1e-12")


# ---------------------------------------------------------------------------
# symmetrized chain and the largest-zero bound
# ---------------------------------------------------------------------------

def test_gamma_chain_basics(tbl):
    chain = tbl.gamma[:27]
    assert len(tbl.gamma) == 2 * tbl.n_max - 1
    assert all(g > 0 for g in chain)
    assert abs(chain[0] - tbl.b[0]) <= CTX.verify_tol(tbl.b[0])
    g2 = tbl.a[1] / tbl.b[0]
    assert abs(chain[1] - g2) <= CTX.verify_tol(g2)


def test_gamma_chain_recovers_recurrence(tbl):
    chain = tbl.gamma
    for k in range(1, 13):
        s = chain[2 * k - 1] + chain[2 * k]
        assert abs(s - tbl.b[k]) <= CTX.verify_tol(tbl.b[k])
        p = chain[2 * k - 2] * chain[2 * k - 1]
        assert abs(p - tbl.a[k]) <= CTX.verify_tol(tbl.a[k])


def test_p_at_zero_alternates(tbl):
    for k in range(15):
        val = tbl.at_zero[k]
        assert (val > 0) == (k % 2 == 0)


def test_gamma_chain_guard(tbl):
    # the bound reads the first 2n - 1 entries of the view: a degree past
    # the table is refused, and a non-positive entry only among them
    with pytest.raises(IndexError):
        largest_zero_bound(tbl, tbl.n_max + 1)
    k = 2 * tbl.n_max - 2
    bad = dataclasses.replace(tbl)
    bad.__dict__["gamma"] = tbl.gamma[:k] + (-tbl.gamma[k],)
    assert largest_zero_bound(bad, tbl.n_max - 1) == largest_zero_bound(tbl, tbl.n_max - 1)
    with pytest.raises(DomainError, match=f"gamma_{k + 1} "):
        largest_zero_bound(bad, tbl.n_max)


def test_largest_zero_bound_dominates(tbl, zsets):
    for n in range(2, 15):
        bound = largest_zero_bound(tbl, n)
        assert zsets[n][n - 1] < bound


def test_bound_constant_n2():
    # 4 cos^2(pi/5) is the square of the golden ratio
    phi2 = (3 + mp.sqrt(5)) / 2
    c4 = 4 * mp.cos(mp.pi / 5) ** 2
    assert abs(c4 - phi2) <= CTX.verify_tol(phi2)


def test_largest_zero_bound_guards(tbl):
    with pytest.raises(DomainError):
        largest_zero_bound(tbl, 1)
    for eps in (0, mp.inf, mp.nan):
        with pytest.raises(DomainError):
            largest_zero_bound(tbl, 5, eps=eps)


# ---------------------------------------------------------------------------
# limiting density
# ---------------------------------------------------------------------------

def test_density_model():
    model = DensityModel.for_t(1, CTX)
    c = mp.mpf(140) ** mp.mpf("-0.25")
    assert abs(model.beta_t - 4 * c) <= CTX.verify_tol(4 * c)
    for t in (0, mp.inf, mp.nan):
        with pytest.raises(DomainError):
            DensityModel.for_t(t, CTX)


def test_density_domain():
    model = DensityModel.for_t(1, CTX)
    for bad in (0, -1, model.beta_t, model.beta_t + 1):
        with pytest.raises(DomainError):
            density(bad, 1, CTX)


def test_density_closed_form_matches_series():
    # mpmath's 2F1 shares no code with the closed form
    for wq in ("0.05", "0.3", "0.6", "0.62", "0.9", "0.99"):
        w = mp.mpf(wq)
        with mp.workprec(CTX.bits + 64):
            series = mp.hyp2f1(mp.mpf("0.5"), mp.mpf("-3.5"), mp.mpf("-2.5"), w)
        assert abs(density_closed_form(w, CTX) - series) <= CTX.verify_tol(series)


def test_density_series_vs_integral():
    model = DensityModel.for_t(1, CTX)
    # 0.97 and 0.999 lie in the band next to the support edge
    for wq in ("0.05", "0.2", "0.5", "0.7", "0.9", "0.97", "0.999"):
        x = mp.mpf(wq) * model.beta_t
        closed = density(x, 1, CTX)
        integral = density_integral(x, 1, CTX)
        assert abs(closed - integral) / closed <= mp.mpf("1e-8")


def test_density_small_x_limit():
    lim = 4 / (7 * mp.pi * mp.mpf(140) ** mp.mpf("-0.125"))
    x = mp.mpf("1e-12")
    got = density(x, 1, CTX) * mp.sqrt(x)
    assert abs(got - lim) / lim <= mp.mpf("1e-10")


def test_density_positive_on_support():
    model = DensityModel.for_t(1, CTX)
    for wq in ("0.001", "0.1", "0.5", "0.95", "0.9999"):
        assert density(mp.mpf(wq) * model.beta_t, 1, CTX) > 0


DENSITY_TS = ("0.0625", "0.3", 1, 4, 16)


@pytest.mark.parametrize("t", DENSITY_TS)
def test_density_normalization(t):
    # the Gauss rule is exact, so the mass is 1 to the last bits, far inside
    # the record's 1e-6 contract
    assert abs(density_normalization(t) - 1) <= DENSITY_CTX.verify_tol(1)


@pytest.mark.parametrize("t", ["0.3", 1])
def test_density_matches_its_formula_bitwise(t):
    # the prefactor (4/(7 pi)) x^(-1/2) t^(-1/8) c^(-1/2) written out term by
    # term, at the precision density() works in
    model = DensityModel.for_t(t, CTX)
    for wq in ("0.01", "0.5", "0.99"):
        with CTX.workprec(32):
            x, tv = mp.mpf(wq) * model.beta_t, mp.mpf(t)
            c = mp.mpf(140) ** mp.mpf("-0.25")
            pref = (4 / (7 * mp.pi)) / (mp.sqrt(x) * tv ** mp.mpf("0.125") * mp.sqrt(c))
            want = CTX.round(pref * density_closed_form(x / model.beta_t, CTX))
        assert density(x, t, CTX)._mpf_ == want._mpf_


@pytest.mark.parametrize("t", ["0.3", 1])
def test_density_normalization_is_gauss_rule_over_density(t):
    # the N = 6 Gauss-Chebyshev rule of the second kind in x = beta cos^2(theta),
    # written out node by node over density() itself; the nodes k = 4, 5, 6
    # mirror k = 3, 2, 1
    with DENSITY_CTX.workprec():
        tv = mp.mpf(t)
        beta = DensityModel.for_t(tv, DENSITY_CTX).beta_t
        terms = []
        for k in (1, 2, 3):
            theta = k * mp.pi / 7
            x = beta * mp.cos(theta) ** 2
            terms.append(density(x, tv, DENSITY_CTX) * beta * mp.sin(2 * theta))
        want = mp.pi / 7 * (terms[0] + terms[1] + terms[2])
    assert density_normalization(t)._mpf_ == want._mpf_


def s_form(x, t, bits):
    """(1/(pi t)) int_{s_0}^t ds/(sqrt(4 c s^(1/4) - x) sqrt(x)) by tanh-sinh at
    `bits`, with s = s_0 + v^2 taking out the lower endpoint's singularity:
    the tests' reference for the Gauss rule of density_integral."""
    with mp.workprec(bits):
        c = mp.mpf(140) ** mp.mpf("-0.25")
        B = x / (4 * c)
        s0 = B ** 4

        def g(v):
            A = (s0 + v * v) ** mp.mpf("0.25")
            return mp.sqrt((A + B) * (A * A + B * B) / c)

        return mp.quad(g, [0, mp.sqrt(t - s0)]) / (mp.pi * t * mp.sqrt(x))


@pytest.mark.parametrize("t", DENSITY_TS)
def test_density_integral_is_exact(t):
    # the rule is exact for its degree-6 integrand, so it lands within an ulp
    # of a reference 200 bits wider (2^-SLACK_BITS of verify_tol), also next
    # to the support edge, where R^2 = 4 c t^(1/4) - x cancels
    model = DensityModel.for_t(t, DENSITY_CTX)
    for wq in ("0.001", "0.05", "0.5", "0.97", "0.999"):
        x = mp.mpf(wq) * model.beta_t
        ref = s_form(x, mp.mpf(t), DENSITY_CTX.bits + 200)
        assert abs(density_integral(x, t, DENSITY_CTX) - ref) <= DENSITY_CTX.eps * ref


def test_density_cdf_endpoints():
    assert density_cdf(0, CTX) == 0
    assert density_cdf(1, CTX) == 1
    vals = [density_cdf(mp.mpf(k) / 8, CTX) for k in range(9)]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_density_cdf_matches_quadrature():
    qctx = PrecisionContext(128)
    model = DensityModel.for_t(1, qctx)
    beta = model.beta_t
    for wq in ("0.25", "0.5", "0.85"):
        w = mp.mpf(wq)
        # 32 bits over the context suffice for a check at verify_tol; the
        # 1200-bit pin would make the quadrature ~90 times slower
        with qctx.workprec(32):
            direct = mp.quad(lambda u: density(beta * u * u, 1, qctx) * 2 * beta * u,
                             [0, mp.sqrt(w)])
        assert abs(density_cdf(w, qctx) - direct) <= qctx.verify_tol(1)


def test_empirical_distance_trend():
    kctx = PrecisionContext(96)
    d = [empirical_density_distance(n, n, 1, kctx) for n in (50, 100, 200)]
    assert d[0] > d[1] > d[2]
    assert d[0] < mp.mpf("0.05")


# ---------------------------------------------------------------------------
# electrostatics
# ---------------------------------------------------------------------------

def test_stationarity(tbl, zsets):
    assert stationarity_check(tbl, zsets[6]) <= mp.mpf("1e-10")
    assert stationarity_check(tbl, zsets[12]) <= mp.mpf("1e-8")


def test_energy_permutation_invariance(tbl, zsets):
    base = list(zsets[5].values)
    perm = [base[2], base[0], base[4], base[1], base[3]]
    e1 = electro_energy(tbl, base)
    e2 = electro_energy(tbl, perm)
    assert abs(e1.energy - e2.energy) <= CTX.verify_tol(e1.energy)


def test_electro_guards(tbl):
    with pytest.raises(DomainError):
        electro_energy(tbl, [mp.mpf(1), mp.mpf(1)])


def test_gradient_matches_finite_differences(tbl):
    pos = [mp.mpf(q) for q in ("0.3", "0.7", "1.1", "1.6", "2.2")]
    grad = electro_energy(tbl, pos).gradient

    def energy_at(p):
        return electro_energy(tbl, p).energy

    errs = []
    for h in (mp.mpf("1e-4"), mp.mpf("5e-5")):
        worst = mp.mpf(0)
        for k in range(5):
            up = list(pos)
            up[k] = pos[k] + h
            dn = list(pos)
            dn[k] = pos[k] - h
            fd = (energy_at(up) - energy_at(dn)) / (2 * h)
            worst = max(worst, abs(fd - grad[k]))
        errs.append(worst)
    ratio = errs[0] / errs[1]
    assert mp.mpf("3.5") <= ratio <= mp.mpf("4.5")


def test_potential_quartic_dominates(tbl):
    x = mp.mpf(50)
    ratio = _fields(tbl, 4, [x])[0][0] / x ** 4
    assert abs(ratio - 1) <= mp.mpf("1e-4")


def test_potential_direct_value(tbl):
    n = 3
    R = tbl.a[n + 1] + tbl.b[n] ** 2 + tbl.a[n]
    shift = tbl.at_zero[n] ** 2 / (4 * tbl.h[n])
    expect = 1 + mp.log(1 + tbl.b[n] + R + shift)
    got = _fields(tbl, n, [1])[0][0]
    assert abs(got - expect) <= CTX.verify_tol(expect)


def test_potential_deriv_matches_fd(tbl):
    x = mp.mpf("0.9")
    d = _fields(tbl, 4, [x])[0][1]
    errs = []
    for h in (mp.mpf("1e-6"), mp.mpf("5e-7")):
        fd = (_fields(tbl, 4, [x + h])[0][0]
              - _fields(tbl, 4, [x - h])[0][0]) / (2 * h)
        errs.append(abs(fd - d))
    assert mp.mpf("3.5") <= errs[0] / errs[1] <= mp.mpf("4.5")


def test_potential_guards(tbl):
    with pytest.raises(DomainError):
        _fields(tbl, 3, [0])
    with pytest.raises(IndexError):
        _fields(tbl, tbl.n_max, [1])


def test_ode_holds_at_zeros(tbl):
    for n in (4, 10):
        assert ode_at_zeros_check(tbl, n) <= CTX.verify_tol(1)


# ---------------------------------------------------------------------------
# comparison families
# ---------------------------------------------------------------------------

def chebyshev_comparison(n, ctx):
    """(closed-form zeros, eigenvalue-route zeros) of the shifted Chebyshev
    family of chebyshev_zeros: diagonal beta, off-diagonal products beta^2/4."""
    with ctx.workprec(32):
        beta = comparison_beta(ctx)
        eig = tridiag_eigenvalues([beta] * n, [beta ** 2 / 4] * (n - 1), ctx)
    return chebyshev_zeros(n, ctx), tuple(eig)


def test_chebyshev_routes_agree():
    closed, eig = chebyshev_comparison(8, CTX)
    beta = comparison_beta(CTX)
    for a, b in zip(closed, eig):
        assert abs(a - b) <= CTX.verify_tol(4 * beta)


def test_chebyshev_smallest():
    beta = comparison_beta(CTX)
    closed, _ = chebyshev_comparison(1, CTX)
    assert abs(closed[0] - beta) <= CTX.verify_tol(beta)
    y_prev = None
    for n in (2, 4, 8, 14):
        y1 = chebyshev_comparison(n, CTX)[0][0]
        if y_prev is not None:
            assert y1 < y_prev
        y_prev = y1


def test_smallest_ratio_tends_to_one():
    # y_{n,1} / w_n with w_n = beta pi^2 / (2 (n+1)^2), as in figure 4
    beta = comparison_beta(CTX)
    devs = [abs(chebyshev_zeros(n, CTX)[0] / (beta * mp.pi ** 2 / (2 * (n + 1) ** 2)) - 1)
            for n in (10, 40, 160)]
    assert devs[0] > devs[1] > devs[2]
    assert devs[2] < mp.mpf("1e-3")


def test_ptilde():
    assert ptilde_zeros(1, CTX) == (mp.mpf(0),)
    prev = None
    for n in (2, 5, 9, 14):
        zs = ptilde_zeros(n, CTX)
        assert len(zs) == n
        if prev is not None:
            assert zs[-1] > prev
        prev = zs[-1]
    with pytest.raises(DomainError):
        ptilde_zeros(0, CTX)


# ---------------------------------------------------------------------------
# the binary64 seed of the polish
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("zq", ["0.25", "1", "4"])
def test_float_seed_keeps_the_bits(zq, monkeypatch):
    # only the starting point of the polish moves: started from the midpoint
    # of every bracket, both routes return the same bits
    ctx = PrecisionContext(default_bits(24))
    t = chebyshev_coeffs(mp.mpf(zq), 24, ctx)
    seeded = [_bits(zeros(t, n, ctx)) for n in range(1, 25)]
    swept = [_bits(zs) for zs in zero_sweep(t, 24, ctx)]
    assert swept == seeded
    monkeypatch.setattr(kernel, "_seed", lambda fb, fa, n, lo, hi, bits: kernel._mid(lo, hi, bits))
    assert [_bits(zeros(t, n, ctx)) for n in range(1, 25)] == seeded
    assert [_bits(zs) for zs in zero_sweep(t, 24, ctx)] == swept


def test_float_seed_leaves_three_full_precision_steps(monkeypatch):
    # from a seed good to about 50 bits, every pass of the polish at any
    # precision, the ladder's included, stays within 3.5 per zero; the
    # midpoint start needed about 6 at 384 + 32 bits
    ctx = PrecisionContext(default_bits(16))
    t = chebyshev_coeffs(1, 16, ctx)
    calls = []
    real = kernel._ttrr_d2
    monkeypatch.setattr(kernel, "_ttrr_d2", lambda *a: calls.append(1) or real(*a))
    one_cpu(monkeypatch)
    sets = zero_sweep(t, 16, ctx)
    assert len(calls) <= 3.5 * sum(zs.n for zs in sets)


@pytest.mark.parametrize("n, sweep, per_zero", [(16, True, 2.1), (64, False, 1.5),
                                              (128, False, 1.5)],
                         ids=["sweep16", "zeros64", "zeros128"])
def test_polish_passes_at_the_working_precision(n, sweep, per_zero, monkeypatch):
    # one Halley step at each level of the ladder leaves the iterate good to
    # a third of the working bits, so one step at the working precision
    # converges and _settled spares the step that would only confirm it;
    # a full-precision polish alone made 2.98, 4.2 and 5.1 passes per zero
    ctx = PrecisionContext(default_bits(n))
    t = chebyshev_coeffs(1, n, ctx)
    real, work, full = kernel._ttrr_d2, ctx.bits + 32, []

    def d2(nb, na, k, x, bits):
        full.append(bits == work)
        return real(nb, na, k, x, bits)

    monkeypatch.setattr(kernel, "_ttrr_d2", d2)
    one_cpu(monkeypatch)
    sets = zero_sweep(t, n, ctx) if sweep else [zeros(t, n, ctx)]
    assert sum(full) <= per_zero * sum(zs.n for zs in sets)


def _digest(sets):
    return hashlib.sha256(repr([[tuple(map(int, v._mpf_)) for v in zs.values]
                                for zs in sets]).encode()).hexdigest()


# zero_sweep to degree 48 at default bits, by z
SWEEP48_SHA256 = {
    "0.25": "3265bfce40abcd428172751818280377e07c39cdceb11ef7d5f602e13d94c576",
    "1": "e5d1b66aa25bccd575ce798472e37fa41b128df66383919c273c28efcf8edcad",
    "4": "e007802577d09822a9bc0c49c61e31ec42e9b5697d0d1d09b8803a38cef034a1",
}


@pytest.mark.parametrize("zq, n, sweep, sha256", [
    ("1", 160, False, "7872c7bf0150c42e2c2299dc844fc118647d368707fa3452eadd898e593e82ef"),
    *((zq, 48, True, sha256) for zq, sha256 in SWEEP48_SHA256.items()),
], ids=["zeros160-z1", "sweep48-z0.25", "sweep48-z1", "sweep48-z4"])
def test_polish_keeps_the_bits_of_the_full_precision_loop(zq, n, sweep, sha256):
    # the digests of zeros(tbl, 160) and of zero_sweep to 48 at default bits
    # as the polish computed them when every step ran at the working
    # precision and only a step within tol stopped it: the precision ladder
    # and the cubic-bound stop keep every bit
    ctx = PrecisionContext(default_bits(n))
    t = chebyshev_coeffs(mp.mpf(zq), n, ctx)
    assert _digest(zero_sweep(t, n, ctx) if sweep else [zeros(t, n, ctx)]) == sha256


def test_sturm_cuts_are_evaluated_once(monkeypatch):
    # one pass of _sturm gives the count and the sign of P_n at a bisection
    # point, and _separators hands on the sign it read at every cut, so
    # outside the polish no point is passed twice: the two Gershgorin ends
    # and each bisection point once, the n - 1 cuts among them
    ctx = PrecisionContext(384)
    t = chebyshev_coeffs(1, 16, ctx)
    real_sturm, real_polish = kernel._sturm, kernel._polish
    seen = {"inside": False, "points": []}

    def sturm(nb, na, n, x, bits):
        if not seen["inside"]:
            seen["points"].append(x)
        return real_sturm(nb, na, n, x, bits)

    def polish(*args):
        seen["inside"] = True
        try:
            return real_polish(*args)
        finally:
            seen["inside"] = False

    monkeypatch.setattr(kernel, "_sturm", sturm)
    monkeypatch.setattr(kernel, "_polish", polish)
    for n in range(2, 17):
        seen["points"] = []
        zeros(t, n, ctx)
        assert len(seen["points"]) == len(set(seen["points"])) >= n + 1, n


# ---------------------------------------------------------------------------
# the sweep on two CPUs
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("zq", ["0.25", "1", "4"])
def test_split_sweep_gives_the_serial_bits(zq, monkeypatch, split_sweep):
    # the helper solves degrees m+1..n, the first on its own with Sturm
    # cuts; whatever the cut, its zeros come back with every bit, and the
    # sweep to 48 keeps its pinned digest
    ctx = PrecisionContext(default_bits(48))
    t = chebyshev_coeffs(mp.mpf(zq), 48, ctx)
    built = len(split_sweep)            # the table's own row split
    split = {n: zero_sweep(t, n, ctx) for n in (2, 3, 17, 48)}
    assert len(split_sweep) == built + 4
    assert_no_child()
    assert _digest(split[48]) == SWEEP48_SHA256[zq]
    one_cpu(monkeypatch)
    serial = zero_sweep(t, 48, ctx)
    assert len(split_sweep) == built + 4
    for n, sets in split.items():
        assert [zs.n for zs in sets] == list(range(1, n + 1))
        assert [_bits(zs) for zs in sets] == [_bits(zs) for zs in serial[:n]], n


def test_a_failing_helper_leaves_the_serial_sweep(monkeypatch, split_sweep):
    # the helper's degree on its own raises ConvergenceError in the helper
    # only: this process reads end of file and carries the sweep on from
    # its own top degree
    ctx = PrecisionContext(default_bits(16))
    t = chebyshev_coeffs(1, 16, ctx)
    parent, solve = os.getpid(), zeros_module.zeros

    def failing(*args):
        if os.getpid() != parent:
            raise ConvergenceError("fault injected into the helper")
        return solve(*args)

    monkeypatch.setattr(zeros_module, "zeros", failing)
    with deadline(30, "zero_sweep waited on a dead helper"):
        got = zero_sweep(t, 16, ctx)
    assert len(split_sweep) == 1
    one_cpu(monkeypatch)
    assert [_bits(zs) for zs in got] == [_bits(zs) for zs in zero_sweep(t, 16, ctx)]


def test_a_convergence_error_in_the_callers_share_is_the_serial_one(monkeypatch, split_sweep):
    # degree 3 fails in this process while the helper stalls: the sweep
    # raises the error the serial sweep raises, and the helper is killed
    # and reaped, not waited for
    ctx = PrecisionContext(default_bits(16))
    t = chebyshev_coeffs(1, 16, ctx)
    parent, solve = os.getpid(), zeros_module.tridiag_eigenvalues
    error = ConvergenceError("fault injected at degree 3")

    def stalled_or_failing(diag, off2, ctx, cuts=None):
        if os.getpid() != parent:
            time.sleep(60)
        elif len(diag) == 3:
            raise error
        return solve(diag, off2, ctx, cuts=cuts)

    monkeypatch.setattr(zeros_module, "tridiag_eigenvalues", stalled_or_failing)
    with deadline(30, "zero_sweep waited on a stalled helper"), \
            pytest.raises(ConvergenceError) as got:
        zero_sweep(t, 16, ctx)
    assert got.value is error
    assert len(split_sweep) == 1
    assert_no_child()
    one_cpu(monkeypatch)
    with pytest.raises(ConvergenceError) as serial:
        zero_sweep(t, 16, ctx)
    assert serial.value is error


def test_split_sweep_solves_every_degree_where_fork_fails(monkeypatch, split_sweep):
    def refused():
        raise OSError("fork refused")

    ctx = PrecisionContext(default_bits(16))
    t = chebyshev_coeffs(1, 16, ctx)
    monkeypatch.setattr(os, "fork", refused)
    got = zero_sweep(t, 16, ctx)
    one_cpu(monkeypatch)
    assert [_bits(zs) for zs in got] == [_bits(zs) for zs in zero_sweep(t, 16, ctx)]


def test_sweep_cut_balances_the_cost_model(monkeypatch):
    # one CPU or a low degree keeps the whole sweep here; otherwise the cut
    # leaves the more costly share, the helper's with its start, at most
    # one degree's cost above the other
    one_cpu(monkeypatch)
    assert zeros_module._sweep_cut(64) == 64
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    low = zeros_module.SWEEP_SPLIT_MIN_DEGREE - 1
    assert zeros_module._sweep_cut(low) == low
    for n_max in range(zeros_module.SWEEP_SPLIT_MIN_DEGREE, 130):
        m = zeros_module._sweep_cut(n_max)
        cost = [n * (n + zeros_module.SWEEP_ZERO_STEPS) for n in range(n_max + 1)]
        here, there = sum(cost[:m + 1]), sum(cost[m + 1:]) + zeros_module.SWEEP_HELPER_STEPS
        assert 1 <= m < n_max
        assert abs(here - there) <= cost[m + 1], n_max
    assert [zeros_module._sweep_cut(n) for n in (12, 14, 16, 32, 64)] == [10, 11, 13, 25, 50]
