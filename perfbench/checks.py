"""Checks of tfreud command-line output, one function per workload.

Each checker takes the text one pass of a command wrote and returns a
CheckResult: how many operations the pass attempted, which of them failed a
check (and why), and any fault of the pass as a whole, such as a missing row
or a malformed file, which makes the run incorrect.  Values are compared
with references from reference.py or with properties the method must have,
never with a stored copy of earlier output.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from decimal import ROUND_HALF_UP, Decimal

import mpmath as mp

import reference

# Guard bits used for every comparison made here: parsing and reference
# arithmetic run this far above the precision of the output under test.
GUARD = 64

# The 28 records of `tfreud verify`, in report order.  The first 21 are
# judged against the unit-scale tolerance 2^(13 - bits); the rest carry the
# fixed tolerance given here ("edge" marks the scaling-zeros record, whose
# tolerance is 2^(13 - bits) times the largest zero of P_n at z = 1, with n
# the degree its n_range names).
VERIFY_RECORDS = (
    "moment-recurrence", "stieltjes-ode-tail", "lf-eq1", "lf-eq12",
    "lf-nonlinear", "identity-i", "identity-ii", "compat-first",
    "compat-second", "structure", "lowering", "raising", "ode-composed",
    "ode-eliminated", "confluent-kernel", "lax-block", "jacobi-quartic-rows",
    "scaling-moments", "scaling-coefficients", "scaling-h", "scaling-sigma",
)
VERIFY_FIXED_TOL = {
    "scaling-zeros": "edge",
    "interlacing": "0",
    "stationarity": "1e-8",
    "largest-zero-bound": "1",
    "density-consistency": "1e-8",
    "density-normalization": "1e-6",
    "self-consistency": "0",
}
VERIFY_NAMES = VERIFY_RECORDS + tuple(VERIFY_FIXED_TOL)


@dataclass
class CheckResult:
    attempted: int = 0
    failures: list = field(default_factory=list)
    errors: list = field(default_factory=list)

    def fail(self, op, why):
        self.failures.append(f"{op}: {why}")


def unit_tol(bits: int, prec: int):
    """2^(13 - bits): 2^12 units in the last place of a value of size 1."""
    with mp.workprec(prec):
        return mp.mpf(2) ** (13 - bits)


def parse_csv(text: str, columns: list) -> list:
    """Rows of a tfreud CSV table as dicts of strings; raises ValueError when
    the header or a row's width is not what the command writes."""
    lines = text.splitlines()
    if not lines or lines[0].split(",") != columns:
        raise ValueError(f"header is not {','.join(columns)}")
    rows = []
    for line in lines[1:]:
        cells = line.split(",")
        if len(cells) != len(columns):
            raise ValueError(f"row has {len(cells)} cells, expected {len(columns)}: {line[:60]}")
        rows.append(dict(zip(columns, cells)))
    return rows


def _close(got, want, tol) -> bool:
    return abs(got - want) <= tol * abs(want)


def check_zeros(text: str, z: str, n_max: int, bits: int, published=None) -> CheckResult:
    """`tfreud zeros --all-zeros`: one operation per degree n = 1..n_max.

    Degree n passes when it has n positive, strictly increasing zeros that
    strictly interlace with degree n - 1, when prod(x - x_k) is orthogonal to
    1..x^(n-1) against the exact moments, and, for n = 1, when x_{1,1}
    equals Gamma(1/2) / (Gamma(1/4) z^(1/4)).  `published` maps n to the
    4-decimal (smallest, largest) pair that degree must round to.
    """
    res = CheckResult()
    try:
        rows = parse_csv(text, ["n", "k", "x"])
    except ValueError as exc:
        res.errors.append(f"zeros output: {exc}")
        return res
    prec = 2 * bits + GUARD
    with mp.workprec(prec):
        by_degree = {}
        for row in rows:
            by_degree.setdefault(int(row["n"]), []).append((int(row["k"]), row["x"]))
        if sorted(by_degree) != list(range(1, n_max + 1)):
            res.errors.append(f"degrees present are {sorted(by_degree)}, expected 1..{n_max}")
            return res
        mu = reference.exact_moments(z, 2 * n_max, prec)
        tol = unit_tol(bits, prec)
        prev = None
        for n in range(1, n_max + 1):
            res.attempted += 1
            ks = [k for k, _ in by_degree[n]]
            xs = [mp.mpf(s) for _, s in by_degree[n]]
            op = f"degree {n}"
            if ks != list(range(1, n + 1)):
                res.fail(op, f"zero indices {ks}")
            elif not (xs[0] > 0 and all(p < q for p, q in zip(xs, xs[1:]))):
                res.fail(op, "zeros not positive and strictly increasing")
            elif prev is not None and not all(xs[k] < prev[k] < xs[k + 1] for k in range(n - 1)):
                res.fail(op, f"zeros do not interlace with degree {n - 1}")
            elif (defect := reference.orthogonality_defect(xs, mu, prec)) > tol:
                res.fail(op, f"orthogonality defect {mp.nstr(defect, 5)} > {mp.nstr(tol, 5)}")
            elif n == 1 and not _close(xs[0], reference.first_zero(z, prec), tol):
                res.fail(op, "x_{1,1} differs from Gamma(1/2) / (Gamma(1/4) z^(1/4))")
            elif published and n in published and (
                    (round4(by_degree[n][0][1]), round4(by_degree[n][-1][1])) != published[n]):
                res.fail(op, f"4-decimal extremes differ from the published {published[n]}")
            prev = xs
    return res


def round4(s: str) -> str:
    """A decimal string rounded to 4 places, ties away from zero."""
    return str(Decimal(s).quantize(Decimal("0.0001"), rounding=ROUND_HALF_UP))


def check_coeffs(text: str, z: str, n_max: int, bits: int, ref) -> CheckResult:
    """`tfreud coeffs`: one operation per row n = 0..n_max.

    Row n passes when a_n and b_n agree with the reference (a, b, h) within
    |ref| * 2^(13 - bits), when a_n > 0 (a_0 = 0) and b_n > 0, when
    h_0 = mu_0 and h_n = a_n h_{n-1} to the same relative tolerance, and when
    the two ratio columns equal a_n / sqrt(n/(140z)) and
    b_n / (2 (n/(140z))^(1/4)).
    """
    res = CheckResult()
    try:
        rows = parse_csv(text, ["n", "a_n", "b_n", "h_n", "ratio_a", "ratio_b"])
    except ValueError as exc:
        res.errors.append(f"coeffs output: {exc}")
        return res
    if [r["n"] for r in rows] != [str(n) for n in range(n_max + 1)]:
        res.errors.append(f"rows are not n = 0..{n_max}")
        return res
    ref_a, ref_b, ref_h = ref
    prec = bits + GUARD
    with mp.workprec(prec):
        tol = unit_tol(bits, prec)
        zv = mp.mpf(z)
        h_prev = None
        for n, row in enumerate(rows):
            res.attempted += 1
            a, b, h = (mp.mpf(row[c]) for c in ("a_n", "b_n", "h_n"))
            op = f"row {n}"
            if n == 0 and a != 0:
                res.fail(op, "a_0 is not 0")
            elif n > 0 and not a > 0:
                res.fail(op, "a_n is not positive")
            elif not b > 0:
                res.fail(op, "b_n is not positive")
            elif n > 0 and not _close(a, ref_a[n], tol):
                res.fail(op, f"a_n off the reference by {mp.nstr(abs(a / ref_a[n] - 1) / tol, 4)} tol")
            elif not _close(b, ref_b[n], tol):
                res.fail(op, f"b_n off the reference by {mp.nstr(abs(b / ref_b[n] - 1) / tol, 4)} tol")
            elif n == 0 and not _close(h, ref_h[0], tol):
                res.fail(op, "h_0 is not mu_0")
            elif n > 0 and not _close(h, a * h_prev, tol):
                res.fail(op, "h_n is not a_n h_{n-1}")
            elif n > 0 and not (
                    _close(mp.mpf(row["ratio_a"]), a / mp.sqrt(n / (140 * zv)), tol)
                    and _close(mp.mpf(row["ratio_b"]), b / (2 * (n / (140 * zv)) ** mp.mpf("0.25")), tol)):
                res.fail(op, "ratio columns do not match a_n and b_n")
            h_prev = h
    return res


def check_verify(report: str, table: str, largest: dict) -> CheckResult:
    """`tfreud verify --out FILE`: one operation per record.

    `report` is the PASS/FAIL text on standard output, `table` the CSV the
    command wrote.  A record passes when both say PASS, its residual is
    within its tolerance (the interlacing margin must be positive instead),
    and its tolerance is the one its family is judged by, computed here from
    the precision the report names.  `largest` maps n to the 4-decimal
    largest zero of P_n at z = 1 from the published table.
    """
    res = CheckResult()
    lines = report.splitlines()
    if not lines or not lines[-1].startswith("OVERALL "):
        res.errors.append("report has no OVERALL line")
        return res
    try:
        bits = int(lines[-1].rsplit("(", 1)[1].split(",")[1].split()[0])
    except (IndexError, ValueError):
        res.errors.append(f"cannot read the precision from {lines[-1]!r}")
        return res
    tags = [line.split()[:2] for line in lines[:-1]]
    if [name for _, name in tags] != list(VERIFY_NAMES):
        res.errors.append("report does not list the 28 verification records in order")
        return res
    cells = [line.split(",") for line in table.splitlines()]
    if not cells or cells[0] != ["name", "n_range", "z_values", "residual", "tolerance", "passed"]:
        res.errors.append("verify table has an unexpected header")
        return res
    # z_values holds commas of its own, so residual, tolerance and passed
    # are read from the end of each row
    if [c[0] for c in cells[1:]] != list(VERIFY_NAMES):
        res.errors.append("verify table does not list the 28 records in order")
        return res
    prec = bits + GUARD
    with mp.workprec(prec):
        unit = unit_tol(bits, prec)
        for (tag, name), row in zip(tags, cells[1:]):
            res.attempted += 1
            residual, tol, passed = mp.mpf(row[-3]), mp.mpf(row[-2]), row[-1]
            want = VERIFY_FIXED_TOL.get(name)
            if tag != "PASS" or passed != "True":
                res.fail(name, f"reported {tag}, table says passed={passed}")
            elif want is None and not _close(tol, unit, mp.mpf(2) ** -GUARD):
                res.fail(name, f"tolerance {mp.nstr(tol, 6)} is not 2^(13-{bits})")
            elif want == "edge" and round4(mp.nstr(tol / unit, 20)) != largest.get(
                    int(row[1].removeprefix("n="))):
                res.fail(name, "tolerance is not 2^(13-bits) times the largest zero")
            elif want not in (None, "edge") and not _close(tol, mp.mpf(want), mp.mpf(2) ** -GUARD):
                res.fail(name, f"tolerance {mp.nstr(tol, 6)} is not {want}")
            elif name == "interlacing" and not residual > 0:
                res.fail(name, "interlacing margin is not positive")
            elif name != "interlacing" and not residual <= tol:
                res.fail(name, f"residual {mp.nstr(residual, 6)} exceeds {mp.nstr(tol, 6)}")
    return res
