"""The aggregated verification suite and its fault-injection negative control."""
from __future__ import annotations

import pytest
from mpmath import mp

from tfreud import verify, zeros as zeros_module
from tfreud.kernel import DomainError, PrecisionContext, default_bits
from tfreud.operators import recurrence_passes
from tfreud.recurrence import chebyshev_coeffs
from tfreud.verify import SCALE_Z, inject_fault, parse_fault, run_verification
from tfreud.zeros import zeros

LF_NAMES = {"lf-eq1", "lf-eq12", "lf-nonlinear"}


@pytest.fixture(scope="module")
def clean_report():
    return run_verification(z_values=(1,), n_max=8)


def test_default_run_passes(clean_report):
    assert clean_report.overall
    assert all(r.passed for r in clean_report.records)
    names = [r.name for r in clean_report.records]
    assert len(names) == len(set(names))
    assert LF_NAMES <= set(names)


def test_report_lines(clean_report):
    lines = clean_report.lines()
    assert len(lines) == len(clean_report.records) + 1
    assert lines[-1].startswith("OVERALL PASS")
    assert all(line.startswith(("PASS", "FAIL")) for line in lines[:-1])


def test_density_records_independent_of_storage_bits(clean_report):
    # both density records run in the density's own fixed context, so their
    # residuals keep every bit when the table's precision doubles
    wide = run_verification(z_values=(1,), n_max=8, bits=512)
    for name in ("density-consistency", "density-normalization"):
        narrow, wide_res = (next(r for r in rep.records if r.name == name).residual
                            for rep in (clean_report, wide))
        assert narrow._mpf_ == wide_res._mpf_
        assert narrow <= mp.mpf("1e-20")


def test_density_consistency_sees_a_wrong_closed_form(monkeypatch):
    # the closed form with its 21/5 off by one part in 10^6
    def perturbed(w, ctx):
        with ctx.workprec(32):
            wv = mp.mpf(w)
            V = mp.sqrt(1 - wv)
            val = V ** 7 + mp.mpf(21) / 5 * (1 + mp.mpf("1e-6")) * wv * V ** 5 \
                + 7 * wv ** 2 * V ** 3 + 7 * wv ** 3 * V
            return ctx.round(val)

    monkeypatch.setattr(zeros_module, "density_closed_form", perturbed)
    rep = run_verification(z_values=(1,), n_max=8)
    rec = next(r for r in rep.records if r.name == "density-consistency")
    assert not rec.passed
    assert not rep.overall


def test_density_normalization_sees_a_scaled_density(monkeypatch):
    exact = zeros_module.density_at

    def scaled(t, ctx):
        omega = exact(t, ctx)
        return lambda x: omega(x) * (1 + mp.mpf("1e-5"))

    monkeypatch.setattr(zeros_module, "density_at", scaled)
    rep = run_verification(z_values=(1,), n_max=8)
    rec = next(r for r in rep.records if r.name == "density-normalization")
    assert not rec.passed
    assert not rep.overall


def test_fault_injection_fails():
    rep = run_verification(z_values=(1,), n_max=8, fault="a:3:1e-6")
    assert not rep.overall
    failed = {r.name for r in rep.records if not r.passed}
    assert LF_NAMES <= failed
    # weight-independent records stay green on corrupted tables
    passed = {r.name for r in rep.records if r.passed}
    assert "moment-recurrence" in passed
    assert "interlacing" in passed


FAULT_FAILS = {
    "lf-eq1", "lf-eq12", "lf-nonlinear", "identity-i", "identity-ii", "compat-first",
    "compat-second", "structure", "lowering", "raising", "ode-composed", "ode-eliminated",
    "confluent-kernel", "lax-block", "stationarity",
}


def test_fault_injection_fails_exactly_the_table_records():
    # a:3:1e-6 corrupts every table; the records that read a table fail,
    # the sampled structure, lowering and raising forms among them, and
    # the weight-only, clean-table, zero and density records pass
    rep = run_verification(n_max=8, fault="a:3:1e-6")
    assert {r.name for r in rep.records if not r.passed} == FAULT_FAILS


def test_fault_fails_the_sampled_polynomial_identities_deeper():
    rep = run_verification(z_values=(1,), n_max=32, fault="a:3:1e-6")
    failed = {r.name for r in rep.records if not r.passed}
    assert {"structure", "lowering", "raising"} <= failed


def test_negative_residual_fails():
    # this fault drives the identity-ii residual negative; it must still fail
    rep = run_verification(z_values=(1,), n_max=8, fault="b:5:-1e-40")
    rec = next(r for r in rep.records if r.name == "identity-ii")
    assert not rec.passed
    assert not rep.overall


def test_tables_and_zero_sets_built_once(monkeypatch):
    builds, solves = [], []

    def counted_build(z, n_max, ctx, *rest):
        builds.append(mp.mpf(z))
        return chebyshev_coeffs(z, n_max, ctx, *rest)

    def counted_zeros(tbl, n, ctx, *rest):
        solves.append((tbl, n))
        return zeros(tbl, n, ctx, *rest)

    monkeypatch.setattr(verify, "chebyshev_coeffs", counted_build)
    monkeypatch.setattr(verify, "zeros", counted_zeros)
    run_verification(n_max=8)
    assert len(solves) == len(set(solves))
    # one table per z of the default triple and of SCALE_Z, plus the
    # doubled-precision table of the precision-doubling check
    assert len(builds) == len({mp.mpf(1) / 4, mp.mpf(1), mp.mpf(4), *SCALE_Z}) + 1


def test_one_recurrence_pass_per_z(monkeypatch):
    degrees = []

    def counted_passes(tbl, n, x_samples):
        degrees.append(n)
        return recurrence_passes(tbl, n, x_samples)

    monkeypatch.setattr(verify, "recurrence_passes", counted_passes)
    z_values = (mp.mpf(1) / 4, 1, 4)
    run_verification(z_values=z_values, n_max=8)
    # one pass per z to degree n_max + 2 feeds every sampled record of every
    # degree; the two more are the precision-doubling check's ladder passes
    assert len(degrees) == len(z_values) + 2
    assert degrees[:len(z_values)] == [8 + 2] * len(z_values)


def test_one_call_per_record_function_per_z(monkeypatch):
    calls = {}

    def counted(fn):
        def wrapper(tbl, arg, passes):
            calls[fn.__name__] = calls.get(fn.__name__, 0) + 1
            return fn(tbl, arg, passes)
        return wrapper

    for name in ("structure_residual", "confluent_check", "ladder_residuals",
                 "lowering_residuals"):
        monkeypatch.setattr(verify, name, counted(getattr(verify, name)))
    z_values = (mp.mpf(1) / 4, 1, 4)
    run_verification(z_values=z_values, n_max=8)
    # each call scores every degree of its record; ladder_residuals has one
    # more call for each of the precision-doubling check's two tables
    assert calls == {"structure_residual": 3, "confluent_check": 3, "ladder_residuals": 5,
                     "lowering_residuals": 3}


def test_policy_gate_flags_low_bits():
    rep = run_verification(z_values=(1,), n_max=8, bits=default_bits(8) // 2)
    rec = next(r for r in rep.records if r.name == "self-consistency")
    assert not rec.passed
    assert not rep.overall


def test_parse_fault():
    field, idx, delta = parse_fault("a:3:1e-6")
    assert (field, idx) == ("a", 3)
    assert delta == mp.mpf("1e-6")
    for bad in ("bogus", "c:3:1e-6", "a:x:1e-6", "a:3", "a:0:1e-6", "b:-1:1e-6",
                "a:3:inf", "b:3:-inf", "a:3:nan", "b:3:nan"):
        with pytest.raises(DomainError):
            parse_fault(bad)
    with pytest.raises(DomainError, match="nonnegative"):
        parse_fault("a:-1:1e-6")


def test_inject_fault_shifts_one_entry():
    ctx = PrecisionContext(128)
    tbl = chebyshev_coeffs(1, 6, ctx)
    out = inject_fault(tbl, ("a", 3, mp.mpf("1e-6")))
    assert abs(out.a[3] - tbl.a[3] - mp.mpf("1e-6")) < mp.mpf("1e-40")
    assert out.a[2] == tbl.a[2]
    assert out.b == tbl.b
    with pytest.raises(DomainError):
        inject_fault(tbl, ("a", 99, mp.mpf("1e-6")))


def test_n_max_guard():
    # n_max = 7 would give a Lax block below its minimum size M = 10
    with pytest.raises(DomainError):
        run_verification(n_max=7)
