"""The aggregated verification suite and its fault-injection negative control."""
from __future__ import annotations

import os
import time

import pytest
from conftest import assert_no_child, deadline
from mpmath import mp

from tfreud import recurrence, verify, zeros as zeros_module
from tfreud.kernel import DomainError, PrecisionContext, default_bits
from tfreud.moments import MomentSequence
from tfreud.operators import recurrence_passes
from tfreud.recurrence import chebyshev_coeffs, h_scaling_check, scaling_check
from tfreud.verify import SCALE_Z, inject_fault, parse_fault, run_verification
from tfreud.zeros import zero_scaling_check, zero_sweep, zeros

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


def test_tables_and_zero_sets_built_once(monkeypatch, call_log):
    def counted_build(z, n_max, ctx, *rest):
        call_log(f"build {mp.mpf(z)}")
        return chebyshev_coeffs(z, n_max, ctx, *rest)

    def counted_zeros(tbl, n, ctx, *rest):
        call_log(f"solve {hash((tbl, n))}")
        return zeros(tbl, n, ctx, *rest)

    monkeypatch.setattr(verify, "chebyshev_coeffs", counted_build)
    monkeypatch.setattr(verify, "zeros", counted_zeros)
    run_verification(n_max=8)
    builds = [t for t in call_log.texts() if t.startswith("build")]
    solves = [t for t in call_log.texts() if t.startswith("solve")]
    assert len(solves) == len(set(solves))
    # one table per z of the default triple and of SCALE_Z, plus the
    # doubled-precision table of the precision-doubling check
    assert len(builds) == len({mp.mpf(1) / 4, mp.mpf(1), mp.mpf(4), *SCALE_Z}) + 1


@pytest.mark.parametrize("count", [1, 2], ids=["one-cpu", "two-cpus"])
@pytest.mark.parametrize("fault, solved", [(None, (SCALE_Z[0], SCALE_Z[3])),
                                           ("a:3:1e-6", (*SCALE_Z, mp.mpf(1)))],
                         ids=["clean", "fault"])
def test_scaling_zeros_reads_the_far_sweeps(monkeypatch, call_log, count, fault, solved):
    # with no fault the sweeps of z = 1/4 and z = 4 hold the degree-8 zero
    # sets that scaling-zeros reads, and come back with them; a faulted run
    # sweeps faulted tables, so every clean set is solved on its own
    def counted_zeros(tbl, n, ctx, *rest):
        call_log(f"{tbl.z} {n}")
        return zeros(tbl, n, ctx, *rest)

    monkeypatch.setattr(verify, "zeros", counted_zeros)
    cpus(monkeypatch, count)
    run_verification(n_max=8, fault=fault)
    solves = [text.split() for text in call_log.texts()]
    assert sorted(mp.mpf(z) for z, n in solves if n == "8") == sorted(solved)


def test_one_recurrence_pass_per_z(monkeypatch, call_log):
    def counted_passes(tbl, n, x_samples):
        call_log(str(n))
        return recurrence_passes(tbl, n, x_samples)

    monkeypatch.setattr(verify, "recurrence_passes", counted_passes)
    z_values = (mp.mpf(1) / 4, 1, 4)
    run_verification(z_values=z_values, n_max=8)
    degrees = [int(t) for t in call_log.texts()]
    # one pass per z to degree n_max + 2 feeds every sampled record of every
    # degree; the two more are the precision-doubling check's ladder passes
    assert len(degrees) == len(z_values) + 2
    assert degrees[:len(z_values)] == [8 + 2] * len(z_values)


def test_one_call_per_record_function_per_z(monkeypatch, call_log):
    def counted(fn):
        def wrapper(tbl, arg, passes):
            call_log(fn.__name__)
            return fn(tbl, arg, passes)
        return wrapper

    for name in ("structure_residual", "confluent_check", "ladder_residuals",
                 "lowering_residuals"):
        monkeypatch.setattr(verify, name, counted(getattr(verify, name)))
    z_values = (mp.mpf(1) / 4, 1, 4)
    run_verification(z_values=z_values, n_max=8)
    calls = {}
    for name in call_log.texts():
        calls[name] = calls.get(name, 0) + 1
    # each call scores every degree of its record; ladder_residuals has one
    # more call for each of the precision-doubling check's two tables
    assert calls == {"structure_residual": 3, "confluent_check": 3, "ladder_residuals": 5,
                     "lowering_residuals": 3}


def test_z_records_evaluate_each_band_entry_once(monkeypatch):
    # every record of one z reads R_i and T_i from the table's band, which
    # evaluates each once: R_0..R_{n_max-1} and T_0..T_{n_max}
    ctx = PrecisionContext(default_bits(32))
    tbl = chebyshev_coeffs(1, 34, ctx)
    sweep = zero_sweep(tbl, 14, ctx)
    calls = []
    for name in ("_R_i", "_T_i"):
        def counted(a, b, i, fn=getattr(recurrence, name), name=name):
            calls.append((name, i))
            return fn(a, b, i)
        monkeypatch.setattr(recurrence, name, counted)
    verify._z_records(mp.mpf(1), tbl, 32, ctx, sweep)
    assert sorted(calls) == [("_R_i", i) for i in range(34)] + [("_T_i", i) for i in range(35)]


def test_sixteen_to_the_k_is_an_exact_image_of_z_one():
    # at z = 16^k the elimination runs on the moments of z = 1 scaled by
    # powers of two, so tables, moments and zeros are those of z = 1 times
    # 2^(-2k), 2^(-k), 2^(-(2n+1)k), 2^(-(j+1)k) and 2^(-k), bit for bit;
    # the scaling records read exactly 0 at z = 1/16 and 16
    def image(values, shift) -> list:
        return [mp.ldexp(v, shift(j))._mpf_ for j, v in enumerate(values)]

    for n in (10, 16, 60):
        ctx = PrecisionContext(default_bits(n))
        one, moms = chebyshev_coeffs(1, n, ctx), MomentSequence.build(1, 2 * n + 1, ctx)
        sweep = zero_sweep(one, n, ctx) if n <= 16 else None
        for k in (-2, -1, 1, 2):
            z = mp.mpf(16) ** k
            tbl = chebyshev_coeffs(z, n, ctx)
            assert [v._mpf_ for v in tbl.a] == image(one.a, lambda j: -2 * k)
            assert [v._mpf_ for v in tbl.b] == image(one.b, lambda j: -k)
            assert [v._mpf_ for v in tbl.h] == image(one.h, lambda j: -(2 * j + 1) * k)
            assert [v._mpf_ for v in MomentSequence.build(z, 2 * n + 1, ctx).values] == \
                image(moms.values, lambda j: -(j + 1) * k)
            assert all(scaling_check(tbl, one, j) == (0, 0) for j in range(n + 1))
            assert h_scaling_check(tbl, one, n) == 0
            if n <= 16:
                for got, want in zip(zero_sweep(tbl, n, ctx), sweep):
                    assert [v._mpf_ for v in got] == image(want, lambda j: -k)
                assert [v._mpf_ for v in zeros(tbl, n, ctx)] == image(sweep[-1], lambda j: -k)
                assert zero_scaling_check(zeros(tbl, 10, ctx), sweep[9], ctx) == 0


def cpus(monkeypatch, count: int) -> None:
    """The process reports `count` CPUs, so 1 takes the serial route."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


def record_bits(report) -> list:
    return [(r.name, r.n_range, r.z_values, r.residual._mpf_, r.tolerance._mpf_, r.passed)
            for r in report.records]


@pytest.mark.parametrize("kwargs", [dict(n_max=8), dict(n_max=14),
                                    dict(n_max=8, fault="a:3:1e-6"),
                                    dict(n_max=8, z_values=(1,))],
                         ids=["n8", "n14", "fault", "z1"])
def test_helper_route_gives_the_serial_records(monkeypatch, forks, kwargs):
    # one helper computes the records of every z but 1 and the doubled
    # table; its worst values come back with every bit
    cpus(monkeypatch, 2)
    helped = run_verification(**kwargs)
    assert len(forks) == 1
    assert_no_child()
    cpus(monkeypatch, 1)
    serial = run_verification(**kwargs)
    assert len(forks) == 1
    assert record_bits(helped) == record_bits(serial)


def test_no_fork_gives_the_serial_records(monkeypatch):
    cpus(monkeypatch, 1)
    serial = run_verification(n_max=8)
    refusals = []

    def refused():
        refusals.append(1)
        raise OSError("fork refused")

    cpus(monkeypatch, 2)
    monkeypatch.setattr(os, "fork", refused)
    assert record_bits(run_verification(n_max=8)) == record_bits(serial)
    assert len(refusals) == 1


def test_a_failing_helper_leaves_the_serial_report(monkeypatch, forks, call_log):
    # the Lax check raises in the helper only: this process reads end of
    # file, computes the helper's share itself and returns the serial report
    cpus(monkeypatch, 1)
    serial = run_verification(n_max=8)
    parent, check, here = os.getpid(), verify.lax_block_check, []

    def failing(tbl, *rest):
        if os.getpid() != parent:
            call_log("helper failed")
            raise ArithmeticError("fault injected into the helper")
        here.append(tbl.z)
        return check(tbl, *rest)

    monkeypatch.setattr(verify, "lax_block_check", failing)
    cpus(monkeypatch, 2)
    with deadline(30, "run_verification waited on a dead helper"):
        helped = run_verification(n_max=8)
    assert len(forks) == 1
    assert call_log.texts() == ["helper failed"]
    # the z = 1 block, then the helper's z computed here
    assert here == [1, mp.mpf(1) / 4, 4]
    assert record_bits(helped) == record_bits(serial)
    assert_no_child()


def test_a_parent_error_propagates_and_the_helper_is_killed(monkeypatch, forks):
    # the helper stalls and this process raises: the error leaves unchanged,
    # and the helper is killed and reaped, not waited for
    parent, check = os.getpid(), verify.lax_block_check
    error = ArithmeticError("fault injected into the parent")

    def stalled(*args):
        if os.getpid() != parent:
            time.sleep(60)
        return check(*args)

    def raising(t):
        raise error

    monkeypatch.setattr(verify, "lax_block_check", stalled)
    monkeypatch.setattr(verify, "density_consistency", raising)
    cpus(monkeypatch, 2)
    with deadline(30, "run_verification waited on a stalled helper"), \
            pytest.raises(ArithmeticError) as got:
        run_verification(n_max=8)
    assert got.value is error
    assert len(forks) == 1
    assert_no_child()


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
