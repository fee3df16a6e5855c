"""Acceptance gate: ten criteria, one pass/fail line each.

Each test prints `ACCEPTANCE k <name>: PASS|FAIL` and then asserts, so the
full run shows one line per criterion.  Criterion 1 checks the 28 rounded
extreme zeros of `tfreud zeros --table-check` against the published
4-decimal table, with its three errata (`REF_ERRATA`) confirmed here by a
route that shares no code with the library: exact Gamma moments, a Hankel
solve at 120 digits and polynomial root-finding."""
from __future__ import annotations

import csv
import io
import time
from fractions import Fraction

from conftest import lowering_ref, monic_polys, raising_ref, structure_ref
from mpmath import mp

from tfreud.cli import REF_ERRATA, REF_LARGEST, REF_SMALLEST, main, round_half_away
from tfreud.kernel import (
    PrecisionContext,
    default_bits,
)
from tfreud.moments import moment
from tfreud.operators import (
    beta_row,
    identity_i_residual,
    identity_ii_residual,
    jacobi_matrix,
    ladder_residuals,
    lax_block_check,
    lowering_data,
    lowering_residuals,
    mat_mul,
    recurrence_passes,
    sample_grid,
    structure_residual,
)
from tfreud.recurrence import (
    asymptotic_constant_residuals,
    asymptotic_ratio,
    chebyshev_coeffs,
    h_scaling_check,
    lf_residual_1,
    lf_residual_2,
    lf_residual_I,
    scaling_check,
)
from tfreud.verify import run_verification
from tfreud.zeros import (
    DensityModel,
    density,
    density_integral,
    density_normalization,
    electro_energy,
    empirical_density_distance,
    largest_zero_bound,
    stationarity_check,
    zero_scaling_check,
    zeros,
)


def report(k: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"ACCEPTANCE {k:02d} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def _hankel_extreme_zeros(n: int):
    """Smallest and largest zero of P_n at z = 1 from the exact moments
    mu_k = Gamma((k+1)/4)/4: solve the Hankel system for the monic
    coefficients at 120 digits and take the polynomial's roots."""
    with mp.workdps(120):
        mu = [mp.gamma(mp.mpf(k + 1) / 4) / 4 for k in range(2 * n)]
        hankel = mp.matrix([[mu[i + j] for j in range(n)] for i in range(n)])
        c = mp.lu_solve(hankel, mp.matrix([-mu[i + n] for i in range(n)]))
        roots = mp.polyroots([mp.mpf(1)] + [c[j] for j in range(n - 1, -1, -1)],
                             maxsteps=200, extraprec=400)
        assert all(mp.im(r) == 0 and r > 0 for r in roots)
        roots = sorted(roots)
        return roots[0], roots[-1]


def test_criterion_01_table_reproduction(capsys):
    t0 = time.time()
    code = main(["zeros", "--table-check"])
    elapsed = time.time() - t0
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    published = {"smallest": REF_SMALLEST, "largest": REF_LARGEST}
    expected = {(which, n): REF_ERRATA.get((which, n), ref[n - 1])
                for which, ref in published.items() for n in range(1, 15)}
    rounded = {(r["which"], int(r["n"])): r["rounded"] for r in rows}
    diverging = {(r["which"], int(r["n"])) for r in rows if r["match"] == "False"}
    table_ok = (len(rows) == 28 and rounded == expected
                and diverging == set(REF_ERRATA) and code == 1 and elapsed < 60)

    # each erratum, recomputed without chebyshev_coeffs or zeros, rounds to
    # the corrected value and not to the published one
    extremes = {n: _hankel_extreme_zeros(n) for _, n in REF_ERRATA}
    errata_ok = True
    for (which, n), fixed in REF_ERRATA.items():
        lo, hi = extremes[n]
        got = round_half_away(lo if which == "smallest" else hi, 4)
        errata_ok = errata_ok and got == fixed != published[which][n - 1]

    errata = ", ".join(f"{which} n={n} {published[which][n - 1]}->{fixed}"
                       for (which, n), fixed in sorted(REF_ERRATA.items()))
    report(1, "table-reproduction", bool(table_ok and errata_ok),
           f"exit {code}, {28 - len(diverging)} of 28 match the published table, "
           f"errata {errata} {'confirmed' if errata_ok else 'NOT CONFIRMED'} "
           f"by Hankel route, {elapsed:.1f}s")


def test_criterion_02_closed_form_anchor():
    ctx = PrecisionContext(256)
    tbl = chebyshev_coeffs(1, 2, ctx)
    x11 = zeros(tbl, 1, ctx)[0]
    # x_{1,1} = b_0 = mu_1/mu_0; the moments by direct quadrature, no Gamma
    with mp.workdps(60):
        mu0 = mp.quad(lambda x: mp.exp(-x ** 4), [0, mp.inf])
        mu1 = mp.quad(lambda x: x * mp.exp(-x ** 4), [0, mp.inf])
        oracle = mp.mpf(mu1) / mp.mpf(mu0)
    rel = abs(x11 - oracle) / oracle
    report(2, "closed-form-anchor", rel <= mp.mpf("1e-12"), f"rel {mp.nstr(rel, 3)}")


def test_criterion_03_laguerre_freud_suite():
    n_top = 48
    ctx = PrecisionContext(default_bits(n_top))
    tol = ctx.verify_tol(1)
    worst = mp.mpf(0)
    for z in (mp.mpf(1) / 4, mp.mpf(1), mp.mpf(4)):
        tbl = chebyshev_coeffs(z, n_top + 2, ctx)
        for n in range(1, n_top + 1):
            for lf_residual in (lf_residual_1, lf_residual_2, lf_residual_I):
                res, scale = lf_residual(tbl, n)
                worst = max(worst, abs(res) / scale)
            r_i, s_i = identity_i_residual(tbl, n)
            r_ii, s_ii = identity_ii_residual(tbl, n)
            worst = max(worst, abs(r_i) / s_i, abs(r_ii) / s_ii)
    residuals_ok = worst <= tol

    fault_rep = run_verification(z_values=(1,), n_max=8, fault="a:3:1e-6")
    lf_failed = {r.name for r in fault_rep.records if not r.passed}
    control_ok = (not fault_rep.overall) and {"lf-eq1", "lf-eq12", "lf-nonlinear"} <= lf_failed

    report(3, "laguerre-freud-suite", bool(residuals_ok and control_ok),
           f"worst scaled residual {mp.nstr(worst, 3)} vs tol {mp.nstr(tol, 3)}, "
           f"negative control {'failed as required' if control_ok else 'DID NOT FAIL'}")


def test_criterion_04_operator_identities():
    ctx = PrecisionContext(default_bits(32))
    tol = ctx.verify_tol(1)
    z = mp.mpf(1)
    tbl = chebyshev_coeffs(z, 32, ctx)
    polys = monic_polys(tbl, 32)

    # structure, lowering and raising on the monomial coefficients, and
    # sampled as verify checks them
    lowering = [lowering_data(tbl, n) for n in range(2, 31)]
    checks = [structure_ref(tbl, polys, n) for n in range(0, 31)]
    for data in lowering:
        checks += [lowering_ref(tbl, polys, data), raising_ref(tbl, polys, data)]
    poly_ok = all(res <= ctx.verify_tol(scale) for res, scale in checks)

    # one range call per identity on one pass to degree 32, as verify runs
    # them; the ODEs over degrees 1..20 and 3..20
    passes = recurrence_passes(tbl, 32, sample_grid(31, z, ctx, count=12))
    low, up, composed = lowering_residuals(tbl, 30, passes)
    sampled = [*structure_residual(tbl, 30, passes), *low, *up]
    odes = [*(r[2] for r in ladder_residuals(tbl, 20, passes)), *composed[:18]]
    poly_ok = poly_ok and max(sampled) <= tol
    ode_ok = max(odes) <= tol

    M = 20
    lax_ok = lax_block_check(tbl, M) <= tol
    size = M + 5
    J = jacobi_matrix(tbl, size)
    J4 = mat_mul(mat_mul(J, J), mat_mul(J, J))
    mat_scale = max(max(abs(v) for v in row) for row in J4)
    rows_ok = True
    for n in range(M + 1):
        vec = beta_row(tbl, n).as_vector(size)
        dev = max(abs(vec[k] - J4[n][k]) for k in range(size))
        rows_ok = rows_ok and dev <= ctx.verify_tol(mat_scale)

    report(4, "operator-identities", bool(poly_ok and ode_ok and lax_ok and rows_ok),
           f"sampled worst {mp.nstr(max(sampled), 3)}, ode worst {mp.nstr(max(odes), 3)} "
           f"vs tol {mp.nstr(tol, 3)}, M={M}")


def test_criterion_05_scaling_laws():
    n_top = 14
    ctx = PrecisionContext(default_bits(n_top))
    tol = ctx.verify_tol(1)
    tbl_one = chebyshev_coeffs(1, n_top, ctx)
    worst = mp.mpf(0)
    zero_sets = {}
    for z in (mp.mpf(1) / 16, mp.mpf(1) / 4, mp.mpf(4), mp.mpf(16)):
        for n in range(2 * n_top + 1):
            ratio = moment(n, z, ctx) * z ** (mp.mpf(n + 1) / 4) / moment(n, 1, ctx)
            worst = max(worst, abs(ratio - 1))
        tbl_z = chebyshev_coeffs(z, n_top, ctx)
        for n in range(n_top + 1):
            da, db = scaling_check(tbl_z, tbl_one, n)
            worst = max(worst, abs(da), abs(db))
            if n >= 1:
                sig = tbl_z.sigma(n) * z ** mp.mpf("0.25") / tbl_one.sigma(n)
                worst = max(worst, abs(sig - 1))
        worst = max(worst, abs(h_scaling_check(tbl_z, tbl_one, n_top)))
        zero_sets[z] = zeros(tbl_z, 10, ctx)
    laws_ok = worst <= tol

    zs_one = zeros(tbl_one, 10, ctx)
    zero_worst = max(zero_scaling_check(zs, zs_one, ctx) for zs in zero_sets.values())
    zeros_ok = zero_worst <= ctx.verify_tol(zs_one[9])

    halving = max(abs(2 * a - b) for a, b in
                  zip(zero_sets[mp.mpf(16)].values, zs_one.values))
    halving_ok = halving <= mp.mpf("1e-12")

    report(5, "scaling-laws", bool(laws_ok and zeros_ok and halving_ok),
           f"worst {mp.nstr(worst, 3)} vs tol {mp.nstr(tol, 3)}, "
           f"z=16 halving {mp.nstr(halving, 3)}")


def test_criterion_06_asymptotics():
    # exact symbolic side: q = A^2 = 1/140, B^2 = 4A
    q = Fraction(1, 140)
    main_identity = 3 * q + 6 * (4 * q) + (16 * q) / 2 == Fraction(1, 4)
    quarter_identity = q == (16 * q) / 16  # A^2 == (B^2/4)^2, positive branch
    exact_ok = (main_identity and quarter_identity
                and all(v == 0 for v in asymptotic_constant_residuals().values()))

    ctx = PrecisionContext(192)
    tbl = chebyshev_coeffs(1, 256, ctx)
    devs = []
    for n in (16, 32, 64, 128, 256):
        ra, rb = asymptotic_ratio(tbl, n)
        devs.append(max(abs(ra - 1), abs(rb - 1)))
    trend_ok = all(a > b for a, b in zip(devs, devs[1:]))
    final_ok = devs[-1] < mp.mpf("0.1")

    report(6, "asymptotics", bool(exact_ok and trend_ok and final_ok),
           f"deviation at n=256: {mp.nstr(devs[-1], 3)}, decreasing: {trend_ok}")


def test_criterion_07_density():
    ctx = PrecisionContext(256)
    norm_err = abs(density_normalization(1) - 1)
    norm_ok = norm_err <= mp.mpf("1e-6")

    model = DensityModel.for_t(1, ctx)
    rep_worst = mp.mpf(0)
    for wq in ("0.05", "0.1", "0.3", "0.5", "0.7", "0.9"):
        x = mp.mpf(wq) * model.beta_t
        series = density(x, 1, ctx)
        rep_worst = max(rep_worst, abs(series - density_integral(x, 1, ctx)) / series)
    rep_ok = rep_worst <= mp.mpf("1e-8")

    kctx = PrecisionContext(96)
    d = [empirical_density_distance(n, n, 1, kctx) for n in (50, 100, 200)]
    ks_ok = d[0] > d[1] > d[2]

    report(7, "density", bool(norm_ok and rep_ok and ks_ok),
           f"normalization err {mp.nstr(norm_err, 3)}, series-vs-integral "
           f"{mp.nstr(rep_worst, 3)}, KS {mp.nstr(d[0], 3)} > {mp.nstr(d[1], 3)} "
           f"> {mp.nstr(d[2], 3)}")


def test_criterion_08_electrostatics():
    ctx = PrecisionContext(default_bits(14))
    tbl = chebyshev_coeffs(1, 15, ctx)
    worst = mp.mpf(0)
    for n in range(2, 13):
        worst = max(worst, stationarity_check(tbl, zeros(tbl, n, ctx)))
    grad_ok = worst <= mp.mpf("1e-8")

    pos = [mp.mpf(q) for q in ("0.3", "0.7", "1.1", "1.6", "2.2")]
    grad = electro_energy(tbl, pos).gradient
    errs = []
    for h in (mp.mpf("1e-4"), mp.mpf("5e-5")):
        worst_fd = mp.mpf(0)
        for k in range(5):
            up = list(pos)
            up[k] = pos[k] + h
            dn = list(pos)
            dn[k] = pos[k] - h
            fd = (electro_energy(tbl, up).energy
                  - electro_energy(tbl, dn).energy) / (2 * h)
            worst_fd = max(worst_fd, abs(fd - grad[k]))
        errs.append(worst_fd)
    ratio = errs[0] / errs[1]
    fd_ok = mp.mpf("3.5") <= ratio <= mp.mpf("4.5")

    report(8, "electrostatics", bool(grad_ok and fd_ok),
           f"stationarity worst {mp.nstr(worst, 3)}, FD order ratio {mp.nstr(ratio, 4)}")


def test_criterion_09_bound_check():
    ctx = PrecisionContext(default_bits(14))
    tbl = chebyshev_coeffs(1, 15, ctx)
    ok = True
    for n in range(2, 15):
        bound = largest_zero_bound(tbl, n, eps=mp.mpf("1e-3"))
        ok = ok and zeros(tbl, n, ctx)[n - 1] < bound
    report(9, "bound-check", bool(ok), "computed largest zeros vs chain bound, eps 1e-3")


def _verdict_vector(bits: int):
    ctx = PrecisionContext(bits)
    tol = ctx.verify_tol(1)
    tbl = chebyshev_coeffs(1, 16, ctx)
    # criterion 1 surrogate: rounded table values, smallest and largest zero
    rounded = tuple(round_half_away(zeros(tbl, n, ctx)[k], 4)
                    for n in range(1, 15) for k in (0, n - 1))
    flags = [abs(zeros(tbl, 1, ctx)[0]
                 - mp.gamma(mp.mpf("0.5")) / mp.gamma(mp.mpf("0.25"))) <= mp.mpf("1e-12")]
    for n in (4, 9, 14):
        r_1, s_1 = lf_residual_1(tbl, n)
        flags.append(abs(r_1) / s_1 <= tol)
        r_i, s_i = identity_i_residual(tbl, n)
        flags.append(abs(r_i) / s_i <= tol)
    passes = recurrence_passes(tbl, 12, sample_grid(12, 1, ctx, count=8))
    flags.append(ladder_residuals(tbl, 12, passes)[-1][2] <= tol)
    tbl16 = chebyshev_coeffs(16, 8, ctx)
    tbl1 = chebyshev_coeffs(1, 8, ctx)
    halving = max(abs(2 * a - b) for a, b in
                  zip(zeros(tbl16, 8, ctx).values, zeros(tbl1, 8, ctx).values))
    flags.append(halving <= mp.mpf("1e-12"))
    flags.append(all(g > 0 for g in tbl.gamma[:27]))
    return rounded, tuple(flags)

def test_criterion_10_self_consistency():
    bits = default_bits(14)
    rounded_lo, flags_lo = _verdict_vector(bits)
    rounded_hi, flags_hi = _verdict_vector(2 * bits)
    report(10, "self-consistency", bool(rounded_lo == rounded_hi and flags_lo == flags_hi),
           f"verdicts stable {flags_lo == flags_hi}, rounded values stable "
           f"{rounded_lo == rounded_hi} at {bits} vs {2 * bits} bits")
