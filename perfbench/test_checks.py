"""Each checker accepts fresh tfreud output and rejects a corrupted copy.

Run from the root of the repository: python3 -m pytest perfbench
The commands run at small sizes so the file takes well under a minute.
"""
from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

import mpmath as mp
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
import reference  # noqa: E402
from tfreud.cli import REF_LARGEST, main  # noqa: E402
from tfreud.kernel import default_bits  # noqa: E402


def run_cli(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        main(argv)
    return out.getvalue()


def replace_cell(text: str, row: int, col: int, new: str) -> str:
    """Replace one cell of a CSV body row (row 0 is the first after the header)."""
    lines = text.splitlines()
    cells = lines[row + 1].split(",")
    cells[col] = new
    lines[row + 1] = ",".join(cells)
    return "\n".join(lines) + "\n"


def scaled(s: str, factor: str, digits: int) -> str:
    with mp.workprec(4 * digits):
        return mp.nstr(mp.mpf(s) * (1 + mp.mpf(factor)), digits + 5)


# --- zeros ---------------------------------------------------------------

ZN = 8


@pytest.fixture(scope="module")
def zeros_text():
    return run_cli(["zeros", "--all-zeros", "--n-max", str(ZN)])


def check_zeros(text):
    return checks.check_zeros(text, "1", ZN, default_bits(ZN))


def test_zeros_accepts_fresh_output(zeros_text):
    res = check_zeros(zeros_text)
    assert (res.attempted, res.failures, res.errors) == (ZN, [], [])


def test_zeros_rejects_one_zero_moved_1e30(zeros_text):
    # row 30 is x_{8,3}: degrees 1..7 fill rows 0..27
    x = zeros_text.splitlines()[31].split(",")[2]
    bad = replace_cell(zeros_text, 30, 2, scaled(x, "1e-30", 80))
    res = check_zeros(bad)
    assert len(res.failures) == 1 and res.failures[0].startswith("degree 8:")


def test_zeros_rejects_two_adjacent_zeros_swapped(zeros_text):
    x3, x4 = (zeros_text.splitlines()[r].split(",")[2] for r in (31, 32))
    bad = replace_cell(replace_cell(zeros_text, 30, 2, x4), 31, 2, x3)
    res = check_zeros(bad)
    assert len(res.failures) == 1 and res.failures[0].startswith("degree 8:")


# --- coeffs --------------------------------------------------------------

CN = 40
CBITS = default_bits(CN)


@pytest.fixture(scope="module")
def coeffs_case():
    ref = reference.recurrence_reference("1", CN, CBITS + 8 * CN + 1024)
    return run_cli(["coeffs", "--n-max", str(CN)]), ref


def test_coeffs_accepts_fresh_output(coeffs_case):
    text, ref = coeffs_case
    res = checks.check_coeffs(text, "1", CN, CBITS, ref)
    assert (res.attempted, res.failures, res.errors) == (CN + 1, [], [])


def test_coeffs_rejects_a_n_moved_by_four_tolerances(coeffs_case):
    text, ref = coeffs_case
    a = text.splitlines()[21].split(",")[1]
    # verify_tol(a_n) = |a_n| 2^(13 - bits)
    with mp.workprec(2 * CBITS):
        moved = mp.mpf(a) + 4 * abs(mp.mpf(a)) * mp.mpf(2) ** (13 - CBITS)
        moved = mp.nstr(moved, CBITS // 3)
    res = checks.check_coeffs(replace_cell(text, 20, 1, moved), "1", CN, CBITS, ref)
    assert len(res.failures) == 1 and res.failures[0].startswith("row 20: a_n off")


# --- verify --------------------------------------------------------------

LARGEST = dict(enumerate(REF_LARGEST[:12], start=1))


@pytest.fixture(scope="module")
def verify_case(tmp_path_factory):
    path = tmp_path_factory.mktemp("verify") / "verify.csv"
    report = run_cli(["verify", "--z", "1", "--n-max", "8", "--out", str(path)])
    return report, path.read_text()


def test_verify_accepts_fresh_output(verify_case):
    res = checks.check_verify(*verify_case, LARGEST)
    assert (res.attempted, res.failures, res.errors) == (28, [], [])


def test_verify_rejects_record_flipped_to_fail_in_report(verify_case):
    report, table = verify_case
    bad = report.replace("PASS lf-eq1 ", "FAIL lf-eq1 ", 1)
    res = checks.check_verify(bad, table, LARGEST)
    assert [f.split(":")[0] for f in res.failures] == ["lf-eq1"]


def test_verify_rejects_record_flipped_to_fail_in_table(verify_case):
    report, table = verify_case
    lines = table.splitlines()
    row = next(i for i, line in enumerate(lines) if line.startswith("structure,"))
    lines[row] = lines[row].removesuffix("True") + "False"
    res = checks.check_verify(report, "\n".join(lines) + "\n", LARGEST)
    assert [f.split(":")[0] for f in res.failures] == ["structure"]
