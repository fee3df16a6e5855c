from __future__ import annotations

import os
import signal
from contextlib import contextmanager

import mpmath as mp
import pytest

from tfreud.kernel import PrecisionContext
from tfreud.operators import structure_coeffs

# The pin sets the precision of the tests' own arithmetic: parsing decimal
# strings, differences between values from different contexts, and the
# independent references (mp.quad, mp.gamma) some tests compute.
# At the default 53 bits that arithmetic is far coarser than the tolerances
# it is compared against.  The library ignores the pin: every function takes
# its precision from a PrecisionContext, which test_precision.py checks.
mp.mp.prec = 1200


@pytest.fixture
def ctx256() -> PrecisionContext:
    return PrecisionContext(256)


@pytest.fixture
def ctx128() -> PrecisionContext:
    return PrecisionContext(128)


def assert_no_child():
    """No child of this process is left, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture(autouse=True)
def no_child_left():
    """Fails every test that leaves a child process behind: each helper the
    library forks must be reaped before the call that forked it returns."""
    yield
    assert_no_child()


@pytest.fixture
def forks(monkeypatch):
    """The pids of the helpers forked in the test, as the process that
    forked them sees them: os.fork counted where it returns a child's pid."""
    pids, fork = [], os.fork

    def counted():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return pids


class CallLog:
    """A count of calls made in this process and in any helper it forks:
    each call appends one line to a file that a forked helper inherits."""

    def __init__(self, path):
        self.path, self.pid = path, os.getpid()
        path.touch()

    def __call__(self, text: str) -> None:
        with open(self.path, "a") as fh:
            fh.write(f"{os.getpid()} {text}\n")

    def texts(self) -> list:
        """The texts logged in this process, then those logged in helpers,
        each in call order."""
        rows = [line.split(" ", 1) for line in self.path.read_text().splitlines()]
        return [text for pid, text in sorted(rows, key=lambda row: int(row[0]) != self.pid)]


@pytest.fixture
def call_log(tmp_path):
    return CallLog(tmp_path / "calls")


@contextmanager
def deadline(seconds: int, what: str):
    """Raise TimeoutError(what) in this process if the block runs longer
    than `seconds`, so a wait on a dead or stalled helper fails the test."""
    def expired(signum, frame):
        raise TimeoutError(what)

    old = signal.signal(signal.SIGALRM, expired)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


def mpf_close(a, b, tol) -> bool:
    return abs(mp.mpf(a) - mp.mpf(b)) <= mp.mpf(tol)


# Dense mpf polynomials (ascending coefficient lists) at the caller's
# precision: the tests' symbolic references.  The library never forms a
# polynomial product or derivative; it reads values and slopes on images.

def poly_trim(p: list) -> list:
    i = len(p)
    while i > 1 and p[i - 1] == 0:
        i -= 1
    return p[:i]


def poly_add(p: list, q: list) -> list:
    zero = mp.mpf(0)
    return poly_trim([(p[i] if i < len(p) else zero) + (q[i] if i < len(q) else zero)
                      for i in range(max(len(p), len(q)))])


def poly_sub(p: list, q: list) -> list:
    return poly_add(p, [-c for c in q])


def poly_scale(p: list, c) -> list:
    return poly_trim([ci * c for ci in p])


def poly_mul(p: list, q: list) -> list:
    out = [mp.mpf(0)] * (len(p) + len(q) - 1)
    for i, pi in enumerate(p):
        for j, qj in enumerate(q):
            out[i + j] += pi * qj
    return poly_trim(out)


def poly_diff(p: list) -> list:
    """Formal derivative."""
    if len(p) <= 1:
        return [mp.mpf(0)]
    return poly_trim([p[i] * i for i in range(1, len(p))])


def horner(p, x):
    """mpf Horner at the caller's precision."""
    acc = mp.mpf(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def horner_d(p, x):
    """(p(x), p'(x)) by mpf Horner with its derivative at the caller's
    precision: the tests' reference for kernel._horner_d, in its order."""
    acc, d = mp.mpf(0), mp.mpf(0)
    for c in reversed(p):
        d = d * x + acc
        acc = acc * x + c
    return acc, d


def quotient_slope(num, den, x):
    """(num/den)'(x) from the symbolic quotient rule (num' den - num den')/den^2,
    its polynomials formed and then evaluated at the caller's precision."""
    top = poly_sub(poly_mul(poly_diff(list(num)), list(den)),
                   poly_mul(list(num), poly_diff(list(den))))
    return horner(top, x) / horner(poly_mul(list(den), list(den)), x)


def monic_polys(tbl, n_max: int) -> list:
    """Ascending monomial coefficients of the monic P_0..P_{n_max}, built by
    P_{k+1} = (x - b_k) P_k - a_k P_{k-1} at the table's bits + 32 and
    rounded to them: the tests' own coefficient-level reference."""
    ctx = tbl.ctx
    with ctx.workprec(32):
        polys = [[mp.mpf(1)], [-tbl.b[0], mp.mpf(1)]]
        for k in range(1, n_max):
            step = poly_sub([mp.mpf(0)] + polys[k], poly_scale(polys[k], tbl.b[k]))
            polys.append(poly_sub(step, poly_scale(polys[k - 1], tbl.a[k])))
    return [[ctx.round(c) for c in p] for p in polys[:n_max + 1]]


# Coefficient-level references for the identities that the library checks
# on sample grids: each returns (largest residual coefficient, scale).

def max_abs(p):
    return max(abs(c) for c in p)


def structure_ref(tbl, polys, n):
    """x*P'_{n+1} - (n+1)*P_{n+1} - sum_j c_{n-j} P_{n-j}, scaled by the
    largest coefficient of x*P'_{n+1}."""
    coeffs = structure_coeffs(tbl, n)
    with tbl.workprec():
        xdp = [mp.mpf(0)] + poly_diff(polys[n + 1])
        res = poly_sub(xdp, poly_scale(polys[n + 1], mp.mpf(n + 1)))
        for j in range(4):
            if n - j >= 0:
                res = poly_sub(res, poly_scale(polys[n - j], coeffs[j]))
        return max_abs(res), max_abs(xdp)


def lowering_ref(tbl, polys, data):
    """x P'_{n+1} + D_n P_{n+1} - C_n P_n, scaled by the largest coefficient
    of C_n P_n (n = data.n)."""
    n = data.n
    with tbl.workprec():
        p_up = polys[n + 1]
        res = [mp.mpf(0)] + poly_diff(p_up)
        res = poly_add(res, poly_mul(list(data.D), p_up))
        cp = poly_mul(list(data.C), polys[n])
        return max_abs(poly_sub(res, cp)), max_abs(cp)


def raising_ref(tbl, polys, data):
    """-a_{n+1}[x P'_{n+1} + D_n P_{n+1}] + (x - b_{n+1}) C_n P_{n+1}
    - C_n P_{n+2}, scaled by a_{n+1} times the largest coefficient of C_n P_n."""
    n = data.n
    with tbl.workprec():
        p_up = polys[n + 1]
        core = [mp.mpf(0)] + poly_diff(p_up)
        core = poly_add(core, poly_mul(list(data.D), p_up))
        res = poly_scale(core, -tbl.a[n + 1])
        xb = [-tbl.b[n + 1], mp.mpf(1)]
        res = poly_add(res, poly_mul(poly_mul(xb, list(data.C)), p_up))
        res = poly_sub(res, poly_mul(list(data.C), polys[n + 2]))
        scale = tbl.a[n + 1] * max_abs(poly_mul(list(data.C), polys[n]))
        return max_abs(res), scale
