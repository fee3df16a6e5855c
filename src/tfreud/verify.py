"""One-shot verification suite: every identity the library implements, run
over a configurable (z, n) range and collected into pass/fail records.

Each record stores the worst dimensionless residual of one identity family
next to the tolerance it was judged against: the residual divided by the
scale its function returns with it (one reduction, `_worst`), or divided
inside the function.  A fault-injection hook perturbs one recurrence entry
so the suite demonstrably fails on corrupted data.

The records of one z (_z_records) share nothing with those of another but
the tables.  Where the process may use two CPUs, one helper forked after
the tables are built computes them for every z other than 1, and the
precision-doubling rebuild, while the caller computes the z = 1 block and
the shared records (moments, scaling laws, the z = 1 zeros, the density).
Worst values cross the pipe as the exact bits of each mpf, and merge by
the same max and min in the same order, so the report has the same bits
on one CPU or two.  With no fault injected, the helper also sends back the
zero sets of its sweeps that scaling-zeros reads."""
from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, replace

import mpmath as mp

from .kernel import (DomainError, PrecisionContext, _answer, _forked, _pack, _two_cpus, _unpack,
                     default_bits)
from .moments import MomentSequence, moment_recurrence_residual, stieltjes_residual
from .operators import (beta_row, confluent_check, identity_i_residual, identity_ii_residual,
                        jacobi_matrix, ladder_residuals, lax_block_check, lowering_residuals,
                        mat_mul, recurrence_passes, sample_grid, structure_residual)
from .recurrence import (RecurrenceTable, chebyshev_coeffs, h_scaling_check, lf_residual_1,
                         lf_residual_2, lf_residual_I, scaling_check)
from .zeros import (ZeroSet, _packed, density_consistency, density_normalization,
                    interlacing_margin, largest_zero_bound, stationarity_check,
                    zero_scaling_check, zero_sweep, zeros)

SCALE_Z = (mp.mpf(1) / 16, mp.mpf(1) / 4, mp.mpf(4), mp.mpf(16))


@dataclass(frozen=True)
class CheckRecord:
    name: str
    n_range: str
    z_values: str
    residual: mp.mpf
    tolerance: mp.mpf
    passed: bool

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        return (f"{tag} {self.name:<24} n={self.n_range:<9} z={self.z_values:<12} "
                f"residual {mp.nstr(self.residual, 4):<12} tol {mp.nstr(self.tolerance, 4)}")


@dataclass(frozen=True)
class VerificationReport:
    records: tuple
    bits: int

    @property
    def overall(self) -> bool:
        return all(r.passed for r in self.records)

    def lines(self) -> list:
        out = [r.line() for r in self.records]
        out.append(f"OVERALL {'PASS' if self.overall else 'FAIL'} "
                   f"({sum(r.passed for r in self.records)}/{len(self.records)} checks, "
                   f"{self.bits} bits)")
        return out


def parse_fault(spec: str):
    """'a:3:1e-6' -> ('a', 3, mpf('1e-6')); additive, finite perturbation."""
    parts = spec.split(":")
    try:
        idx, delta = int(parts[1]), mp.mpf(parts[2])
        ok = len(parts) == 3 and parts[0] in ("a", "b") and mp.isfinite(delta)
    except (ValueError, TypeError, IndexError):
        ok = False
    if not ok:
        raise DomainError(f"fault spec must be a|b:index:delta, got {spec!r}")
    if idx < 0:
        raise DomainError("fault index must be nonnegative")
    if parts[0] == "a" and idx == 0:
        raise DomainError("cannot perturb a_0 (pinned to 0)")
    return parts[0], idx, delta


def inject_fault(tbl: RecurrenceTable, fault) -> RecurrenceTable:
    field, idx, delta = fault
    values = list(getattr(tbl, field))
    if idx >= len(values):
        raise DomainError(f"fault index {idx} outside table 0..{len(values) - 1}")
    with tbl.workprec():
        values[idx] = values[idx] + delta
    return replace(tbl, **{field: tuple(values)})


def _rec(name, n_range, z_desc, residual, tolerance) -> CheckRecord:
    res = mp.mpf(residual)
    tol = mp.mpf(tolerance)
    return CheckRecord(name, n_range, z_desc, res, tol, bool(res <= tol))


def _worst(pairs) -> mp.mpf:
    """The largest |residual|/scale over (residual, scale) pairs, divided at
    the caller's precision; 0 if there are none."""
    return max((abs(res) / scale for res, scale in pairs), default=mp.mpf(0))


def _zdesc(z_values) -> str:
    return ",".join(mp.nstr(mp.mpf(z), 6) for z in z_values)


def _algebraic_verdicts(tbl: RecurrenceTable, n_max: int) -> tuple:
    """Pass/fail pattern of the core identity families on one table, up to
    n_max (the table must reach n_max + 2); used to confirm the verdicts are
    stable when the precision is doubled."""
    ctx = tbl.ctx
    with ctx.workprec(64):
        tol = ctx.verify_tol(1)
        flags = []
        for n in range(1, n_max + 1):
            flags += [_worst([fn(tbl, n)]) <= tol
                      for fn in (lf_residual_1, lf_residual_I, identity_i_residual)]
        n = min(5, n_max)
        passes = recurrence_passes(tbl, n, sample_grid(n, tbl.z, ctx, count=8))
        flags.append(ladder_residuals(tbl, n, passes)[-1][2] <= tol)
        return tuple(flags)


def _doubling_stable(tbl_one: RecurrenceTable, n_snap: int) -> bool:
    """Whether the core verdicts on the z = 1 table to n_snap + 2 keep their
    pattern on the same table rebuilt at twice its bits."""
    doubled = chebyshev_coeffs(mp.mpf(1), n_snap + 2, PrecisionContext(2 * tbl_one.ctx.bits))
    return _algebraic_verdicts(tbl_one, n_snap) == _algebraic_verdicts(doubled, n_snap)


def _block_sizes(n_max: int) -> tuple:
    """(M_lax, M_rows): the Lax block's size, min(20, n_max + 3), and the
    last row of the quartic-power rows, min(20, n_max - 2)."""
    return min(20, n_max + 3), min(20, n_max - 2)


def _z_records(z, tbl: RecurrenceTable, n_max: int, ctx: PrecisionContext, sweep) -> tuple:
    """The worst value of each per-z record on the table of one z: lf-eq1,
    lf-eq12, lf-nonlinear, identity-i and identity-ii over n = 1..n_max; the
    eight sampled records, compat-first, compat-second, structure, lowering,
    raising, ode-composed, ode-eliminated and confluent-kernel, one call per
    record function on one recurrence pass to n_max + 2 at the 8 points of
    the grid of P_{n_max+1}; lax-block; jacobi-quartic-rows; and, last, the
    smallest interlacing margin between consecutive zero sets of `sweep`."""
    M_lax, M_rows = _block_sizes(n_max)
    with ctx.workprec(64):
        out = [_worst(fn(tbl, n) for n in range(1, n_max + 1))
               for fn in (lf_residual_1, lf_residual_2, lf_residual_I,
                          identity_i_residual, identity_ii_residual)]

        passes = recurrence_passes(tbl, n_max + 2, sample_grid(n_max + 1, z, ctx, count=8))
        structure = structure_residual(tbl, n_max, passes)
        confluent = confluent_check(tbl, n_max, passes)
        ladder = ladder_residuals(tbl, n_max, passes)
        lowering, raising, composed = lowering_residuals(tbl, n_max, passes)
        out += [max(r[0] for r in ladder), max(r[1] for r in ladder), max(structure),
                max(lowering), max(raising), max(composed), max(r[2] for r in ladder),
                max(confluent)]

        out.append(lax_block_check(tbl, M_lax))

        size = M_rows + 5
        J = jacobi_matrix(tbl, size)
        J2 = mat_mul(J, J)
        J4 = mat_mul(J2, J2)
        mat_scale = max(max(abs(v) for v in row) for row in J4)
        worst = mp.mpf(0)
        for n in range(M_rows + 1):
            vec = beta_row(tbl, n).as_vector(size)
            dev = max(abs(vec[k] - J4[n][k]) for k in range(size))
            worst = max(worst, dev / mat_scale)
        out.append(worst)

        out.append(min(interlacing_margin(cur, prev) for prev, cur in zip(sweep, sweep[1:])))
    return tuple(out)


def run_verification(z_values=(mp.mpf(1) / 4, 1, 4), n_max: int = 14,
                     bits: int | None = None, epsilon="1e-3",
                     fault: str | None = None) -> VerificationReport:
    """Run every residual family and return the collected records.

    Each table and sample grid is built once per call, each zero set once
    per call, and every sampled record reads the one recurrence pass per
    grid point.  `fault`
    ('a:3:1e-6' style) perturbs one entry of the table of every z in
    `z_values`, so a corrupted run must come back failing; the scaling
    records compare clean tables.

    Once the tables are built, where the process may use two CPUs
    (kernel._two_cpus), one forked helper takes the share the module
    docstring names.  If it cannot be forked or ends without answering,
    this process computes that share itself; the helper is killed and
    reaped however the call ends."""
    # the Lax block needs M >= 10 and M_lax = min(20, n_max + 3)
    if n_max < 8:
        raise DomainError(f"verification needs n_max >= 8, got {n_max}")
    if bits is None:
        bits = default_bits(n_max)
    ctx = PrecisionContext(bits)

    with ctx.workprec(64):
        fault_parsed = parse_fault(fault) if fault else None
        zs = [mp.mpf(z) for z in z_values]
        tol1 = ctx.verify_tol(1)
        n_tbl = n_max + 2
        n_top = min(n_max, 14)
        n_snap = min(n_max, 8)

        every_z = dict.fromkeys([*zs, *SCALE_Z, mp.mpf(1)])
        clean = {z: chebyshev_coeffs(z, n_tbl, ctx) for z in every_z}
        tbl_one = clean[mp.mpf(1)]
        tables = {z: inject_fault(clean[z], fault_parsed) if fault_parsed else clean[z]
                  for z in zs}
        far_zs = [z for z in zs if z != 1]
        # scaling-zeros reads the degree-n_zero zeros of the clean tables;
        # with no fault the sweeps of the far z in SCALE_Z hold them
        n_zero = min(n_max, 10)
        swept = [z for z in far_zs if z in SCALE_Z] if fault_parsed is None else []

        def far_share():
            blocks, sets = [], []
            for z in far_zs:
                sweep = zero_sweep(tables[z], n_top, ctx)
                blocks.append(tuple(map(_pack, _z_records(z, tables[z], n_max, ctx, sweep))))
                if z in swept:
                    sets.append(sweep[n_zero - 1])
            return tuple(blocks), _doubling_stable(tbl_one, n_snap), _packed(sets)

        helper = _forked(lambda receive, send: send(far_share())) if _two_cpus() else nullcontext()
        with helper as link:
            solved, blocks = {}, []
            tbl1 = tables.get(mp.mpf(1), tbl_one)
            if mp.mpf(1) in tables:
                # the zeros of degrees 1..14 of the z = 1 table come from one
                # sweep, which the interlacing and z = 1 zero records read
                sweep = zero_sweep(tbl1, n_top, ctx)
                solved.update(((tbl1, zset.n), zset) for zset in sweep)
                blocks = [_z_records(mp.mpf(1), tbl1, n_max, ctx, sweep)]

            def zero_set(tbl, n):
                if (tbl, n) not in solved:
                    solved[tbl, n] = zeros(tbl, n, ctx)
                return solved[tbl, n]

            zdesc = _zdesc(zs)
            nrange = f"1..{n_max}"
            head, scaling = [], []

            # moment recurrence and the Stieltjes tail (weight side, no
            # tables); the scaling records read the same closed-form sequences
            moms = dict(zip(every_z, MomentSequence.build_many(every_z, 2 * n_max + 5, ctx)))
            worst = _worst(moment_recurrence_residual(moms[z], n)
                           for z in zs for n in range(2 * n_max + 1))
            head.append(_rec("moment-recurrence", f"0..{2 * n_max}", zdesc, worst, tol1))

            worst = _worst(stieltjes_residual(moms[z], t, 2 * n_max + 1)
                           for z in zs for t in (mp.mpf(2), mp.mpf(10)))
            head.append(_rec("stieltjes-ode-tail", f"N={2 * n_max + 1}", zdesc, worst, tol1))

            # scaling laws against the z = 1 family
            sdesc = _zdesc(SCALE_Z)
            m_one = moms[mp.mpf(1)]
            worst = max(abs(moms[z][n] * z ** (mp.mpf(n + 1) / 4) / m_one[n] - 1)
                        for z in SCALE_Z for n in range(2 * n_max + 1))
            scaling.append(_rec("scaling-moments", f"0..{2 * n_max}", sdesc, worst, tol1))

            worst_ab = mp.mpf(0)
            for z in SCALE_Z:
                for n in range(n_max + 1):
                    da, db = scaling_check(clean[z], tbl_one, n)
                    worst_ab = max(worst_ab, abs(da), abs(db))
            scaling.append(_rec("scaling-coefficients", f"0..{n_max}", sdesc, worst_ab, tol1))

            worst = max(abs(h_scaling_check(clean[z], tbl_one, n_max)) for z in SCALE_Z)
            scaling.append(_rec("scaling-h", f"n={n_max}", sdesc, worst, tol1))

            worst = mp.mpf(0)
            for z in SCALE_Z:
                for n in range(1, n_max + 1):
                    ratio = clean[z].sigma(n) * z ** mp.mpf("0.25") / tbl_one.sigma(n)
                    worst = max(worst, abs(ratio - 1))
            scaling.append(_rec("scaling-sigma", nrange, sdesc, worst, tol1))

            # the zero sets scaling-zeros reads that the helper does not send
            zs_one = zero_set(tbl_one, n_zero)
            for z in SCALE_Z:
                if z not in swept:
                    zero_set(clean[z], n_zero)

            # the z = 1 zeros: equilibrium and the largest-zero bound
            worst = mp.mpf(0)
            for n in (6, min(12, n_max)):
                worst = max(worst, stationarity_check(tbl1, zero_set(tbl1, n)))
            rest = [_rec("stationarity", f"6,{min(12, n_max)}", "1", worst, mp.mpf("1e-8"))]

            worst_ratio = mp.mpf(0)
            for n in range(2, n_top + 1):
                bound = largest_zero_bound(tbl1, n, eps=epsilon)
                worst_ratio = max(worst_ratio, zero_set(tbl1, n)[n - 1] / bound)
            rest.append(CheckRecord("largest-zero-bound", f"2..{n_top}", "1",
                                    worst_ratio, mp.mpf(1), bool(worst_ratio < 1)))

            # density: closed form against the integral form, and total
            # mass, both in the density's own fixed context, not at the
            # table's bits
            rest.append(_rec("density-consistency", "w=0.05..0.9", "t=1",
                             density_consistency(1), mp.mpf("1e-8")))

            worst = abs(density_normalization(1) - 1)
            rest.append(_rec("density-normalization", "-", "t=1", worst, mp.mpf("1e-6")))

            far, stable, sets = _answer(link, far_share)
        blocks += [tuple(map(_unpack, block)) for block in far]
        for z, packed in zip(swept, sets):
            solved[clean[z], n_zero] = ZeroSet(n_zero, ctx.round(clean[z].z),
                                               tuple(map(_unpack, packed)))
        worst = max(zero_scaling_check(zero_set(clean[z], n_zero), zs_one, ctx)
                    for z in SCALE_Z)
        scaling.append(_rec("scaling-zeros", f"n={n_zero}", sdesc, worst,
                            ctx.verify_tol(zs_one[n_zero - 1])))

        # the per-z records: the worst over every z, the interlacing margin
        # the smallest
        M_lax, M_rows = _block_sizes(n_max)
        names = (("lf-eq1", nrange), ("lf-eq12", nrange), ("lf-nonlinear", nrange),
                 ("identity-i", nrange), ("identity-ii", nrange),
                 ("compat-first", nrange), ("compat-second", nrange),
                 ("structure", f"0..{n_max}"), ("lowering", f"2..{n_max}"),
                 ("raising", f"2..{n_max}"), ("ode-composed", f"3..{n_max}"),
                 ("ode-eliminated", nrange), ("confluent-kernel", f"0..{n_max}"),
                 ("lax-block", f"M={M_lax}"), ("jacobi-quartic-rows", f"0..{M_rows}"))
        per_z = [_rec(name, n_range, zdesc, max(col), tol1)
                 for (name, n_range), col in zip(names, zip(*blocks))]
        margin = min(block[-1] for block in blocks)
        interlacing = CheckRecord("interlacing", f"2..{n_top}", zdesc, margin, mp.mpf(0),
                                  bool(margin > 0))

        # precision policy and verdict stability under doubling
        ok = bits >= default_bits(n_max) and stable
        consistency = CheckRecord("self-consistency", f"1..{n_snap}", "1",
                                  mp.mpf(0 if ok else 1), mp.mpf(0), bool(ok))

    return VerificationReport(tuple(head + per_z + scaling + [interlacing] + rest + [consistency]),
                              bits)
