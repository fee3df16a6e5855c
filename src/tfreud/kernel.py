"""Extended-precision numerical primitives shared by all modules.

Everything here but the forked helper process (_forked, _beside), through
which callers compute part of a result on a second CPU, is pure: results
depend only on the arguments and the PrecisionContext.  Reals are mpmath mpf
values; helpers run at a guarded working precision and round the result to
the context precision, so that recomputing at higher precision reproduces
the same context-rounded value.
"""
from __future__ import annotations

import marshal
import math
import os
import signal
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial

import mpmath as mp
from mpmath.libmp import MPZ, from_man_exp, round_nearest, to_float

# Fixed slack absorbing benign rounding accumulation across O(n^2) arithmetic.
SLACK_BITS = 12
# Guard bits over a table's precision for every evaluation on the table.
RESIDUAL_GUARD_BITS = 96
# Binary64 Newton-Halley steps _seed may take before it hands over.
SEED_STEPS = 32


class DomainError(ValueError):
    """Argument outside the mathematical domain of the operation."""


class ConvergenceError(ArithmeticError):
    """Series or iteration failed to converge in the allowed budget."""


class PrecisionExhaustionError(ArithmeticError):
    """All significant bits were lost; carries the failing index."""

    def __init__(self, message: str, index: int):
        super().__init__(message)
        self.index = index


@dataclass(frozen=True)
class PrecisionContext:
    """Binary working precision plus the tolerance rule derived from it."""

    bits: int = 256

    def __post_init__(self):
        if self.bits < 64:
            raise DomainError(f"bits must be >= 64, got {self.bits}")

    @property
    def eps(self) -> mp.mpf:
        with mp.workprec(self.bits):
            return mp.mpf(2) ** (1 - self.bits)

    def verify_tol(self, scale=1) -> mp.mpf:
        """Absolute tolerance |scale| * eps * 2**SLACK_BITS."""
        with mp.workprec(self.bits + 8):
            return abs(mp.mpf(scale)) * mp.mpf(2) ** (1 - self.bits + SLACK_BITS)

    def workprec(self, guard: int = 0):
        return mp.workprec(self.bits + guard)

    def round(self, x) -> mp.mpf:
        """Round x to this context's precision (exact binary value)."""
        with mp.workprec(self.bits):
            return +mp.mpf(x)


def default_bits(n_max: int) -> int:
    """Precision policy: conditioning of the moment map grows geometrically
    in the degree, so the default precision grows linearly with it."""
    return 128 + 16 * max(0, int(n_max))


def positive_finite(v, name: str) -> mp.mpf:
    """v parsed at the caller's precision; DomainError unless 0 < v < inf."""
    value = mp.mpf(v)
    if not 0 < value < mp.inf:
        raise DomainError(f"{name} must be positive and finite, got {v}")
    return value


# ---------------------------------------------------------------------------
# one forked helper process: the row split of chebyshev_coeffs, the per-z
# records of verify and the top degrees of zero_sweep hand work to it.
# Messages are marshal-ed ints and tuples of them, length-prefixed, over two
# pipes; an mpf crosses as its exact bits (_pack, _unpack).
# ---------------------------------------------------------------------------

# True in a forked helper, whose memory is its own, and in its caller for as
# long as the helper lives: neither forks another helper, which would put
# three processes on two CPUs.
_NO_FORK = False


def _two_cpus() -> bool:
    """Whether this process may hand work to one forked helper: fork exists,
    the process may run on at least two CPUs, it runs no other thread (a
    fork copies no thread, and a lock another thread holds stays held in
    the child), and it neither is a helper nor has one alive (_NO_FORK)."""
    return (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
            and len(os.sched_getaffinity(0)) >= 2 and threading.active_count() == 1
            and not _NO_FORK)


def _send(pipe, msg) -> None:
    """Write msg (ints and tuples of them) to the binary file pipe:
    marshal, length-prefixed, flushed."""
    data = marshal.dumps(msg)
    pipe.write(len(data).to_bytes(8, "little") + data)
    pipe.flush()


def _receive(pipe):
    """The next message _send wrote to pipe, or None at end of file."""
    head = pipe.read(8)
    size = int.from_bytes(head, "little")
    data = pipe.read(size)
    return marshal.loads(data) if len(head) == 8 and len(data) == size else None


def _pack(v: mp.mpf) -> tuple:
    """The bits of the mpf v as a tuple of ints that marshal sends."""
    sign, man, exp, bc = v._mpf_
    return sign, int(man), exp, bc


def _unpack(t) -> mp.mpf:
    """The mpf _pack packed, exactly."""
    sign, man, exp, bc = t
    return mp.make_mpf((sign, MPZ(man), exp, bc))


def _current_cpu():
    """The CPU this process last ran on, field 39 of /proc/self/stat, or
    None where that cannot be read."""
    try:
        with open("/proc/self/stat", "rb") as stat:
            return int(stat.read().rsplit(b")", 1)[1].split()[36])
    except (OSError, ValueError, IndexError):
        return None


def _leave_cpu(cpu) -> None:
    """Restrict this process to the CPUs it may use other than `cpu`, if
    `cpu` is known and any others remain; nothing if that is refused."""
    if cpu is None:
        return
    others = os.sched_getaffinity(0) - {cpu}
    if others:
        try:
            os.sched_setaffinity(0, others)
        except OSError:
            pass


@contextmanager
def _forked(serve):
    """Fork one helper that runs serve(receive, send) and yield the caller's
    (send, receive), or None, forking nothing, where _two_cpus() is False
    or the fork fails.  In the helper, receive() returns the caller's next
    message or None once the caller has closed its end, and send(msg)
    answers.  In the caller, receive() raises RuntimeError if the helper
    ended before it answered, and send raises BrokenPipeError once the
    helper has ended.  The helper leaves by os._exit when serve returns or
    raises, flushing nothing it inherited.  However the caller leaves the
    block, it closes both pipes, kills the helper, which has then nothing
    left to send, and reaps it.  Inside the block, and in the helper,
    _two_cpus() is False.

    The helper first moves itself off the CPU the caller ran on at the fork,
    where it may: a cpuset without load balancing keeps a forked child on
    its parent's CPU, and the two processes would then share one CPU."""
    global _NO_FORK
    fds, pid = [], None
    try:
        if _two_cpus():
            cpu = _current_cpu()
            fds += os.pipe()
            fds += os.pipe()
            pid = os.fork()
    except OSError:
        for fd in fds:
            os.close(fd)
    if pid is None:
        yield None
        return
    down_r, down_w, up_r, up_w = fds
    if pid == 0:
        _NO_FORK, status = True, 1
        try:
            _leave_cpu(cpu)
            os.close(down_w)
            os.close(up_r)
            serve(partial(_receive, open(down_r, "rb")), partial(_send, open(up_w, "wb")))
            status = 0
        finally:
            os._exit(status)
    os.close(down_r)
    os.close(up_w)

    def receive():
        msg = _receive(up)
        if msg is None:
            raise RuntimeError("the helper process ended early")
        return msg

    outer, _NO_FORK = _NO_FORK, True
    try:
        with open(down_w, "wb") as down, open(up_r, "rb") as up:
            yield partial(_send, down), receive
    finally:
        _NO_FORK = outer
        os.kill(pid, signal.SIGKILL)      # an exited, unreaped helper takes it too
        os.waitpid(pid, 0)


@contextmanager
def _beside(work):
    """Fork one helper that sends back work() and yield answer: answer()
    returns the helper's answer, or work() computed here if no helper was
    forked or it ended without answering, so a failing helper leaves the
    serial result and the serial exception.  The helper is killed and
    reaped however the block ends, as _forked does."""
    with _forked(lambda receive, send: send(work())) as link:
        def answer():
            if link is not None:
                try:
                    return link[1]()
                except RuntimeError:
                    pass
            return work()

        yield answer


# ---------------------------------------------------------------------------
# correctly rounded arithmetic on integer images: (m, e) stands for m * 2^e,
# with m a signed Python int.  Every product, sum and quotient of images is
# rounded to `bits` bits, to nearest with ties to even, as mpmath rounds;
# comparisons are exact.  A correctly rounded result is unique, so a loop
# run on images in the order of the same loop in mpf at `bits` gives the
# same bits, without mpmath's per-operation overhead (Brent & Zimmermann,
# Modern Computer Arithmetic, 2010, 3.1).
# mpmath's own shortcut for far-apart addends rounds correctly too whenever
# the larger one holds at most `bits` bits, as every operand here does.
# ---------------------------------------------------------------------------

def _image(v) -> tuple:
    """The mpf v as an image, exactly."""
    s, m, e, _ = v._mpf_
    return (-m if s else m), e


def _mpf(u) -> mp.mpf:
    """The image u as an mpf, exactly, whatever mpmath's global precision."""
    return mp.make_mpf(from_man_exp(*u))


def _round(m, e, bits) -> tuple:
    """m * 2^e rounded to `bits` bits, to nearest with ties to even."""
    n = m.bit_length() - bits
    if n <= 0:
        return m, e
    t = m >> (n - 1)
    q = t >> 1
    if t & 1 and (q & 1 or m & ((1 << (n - 1)) - 1)):
        q += 1
    return q, e + n


def _mul(u, v, bits) -> tuple:
    return _round(u[0] * v[0], u[1] + v[1], bits)


def _add(u, v, bits) -> tuple:
    """u + v rounded.  An addend below 2^-(bits + 1) units of the other's
    lowest bit decides the rounding only by its sign, so half that bound,
    with its sign, stands in for it."""
    (m, e), (m2, e2) = (u, v) if u[1] >= v[1] else (v, u)
    g = e - e2
    if g > bits + 2 and m and m2.bit_length() + bits < g:
        g, m2 = bits + 2, (m2 > 0) - (m2 < 0)
    return _round((m << g) + m2, e - g, bits)


def _neg(u) -> tuple:
    return -u[0], u[1]


def _sub(u, v, bits) -> tuple:
    return _add(u, _neg(v), bits)


def _sum(us, bits) -> tuple:
    """u_0 + u_1 + ... (a nonempty sequence) added left to right to 0, each
    sum rounded, as Python's sum() adds mpf values: 0 + u_0 rounds u_0."""
    acc = _round(*us[0], bits)
    for u in us[1:]:
        acc = _add(acc, u, bits)
    return acc


def _div(u, v, bits) -> tuple:
    """u / v rounded, v not zero: a quotient of at least bits + 3 bits with
    a sticky bit for a nonzero remainder, rounded by _round, as mpf_div
    rounds it."""
    (m, e), (m2, e2) = u, v
    g = max(0, bits + 3 + m2.bit_length() - m.bit_length())
    q, r = divmod(abs(m) << g, abs(m2))
    q = q << 1 | (r > 0)
    return _round(-q if (m < 0) != (m2 < 0) else q, e - e2 - g - 1, bits)


def _cmp(u, v) -> int:
    """-1, 0 or 1 as u <, = or > v, exactly.  Only images whose leading bits
    sit at one position are aligned, so no shift exceeds a mantissa."""
    (m, e), (m2, e2) = u, v
    s, s2 = (m > 0) - (m < 0), (m2 > 0) - (m2 < 0)
    if s != s2 or not s:
        return (s > s2) - (s < s2)
    t, t2 = m.bit_length() + e, m2.bit_length() + e2
    if t != t2:
        return s if t > t2 else -s
    d = (m << e - e2) - m2 if e >= e2 else m - (m2 << e2 - e)
    return (d > 0) - (d < 0)


def _horner_d(cs, x, bits) -> tuple:
    """(p(x), p'(x)) for the ascending coefficient images cs (at least one)
    at the image x, by one Horner pass from p = cs[-1], d = 0: d = d x + p,
    then p = p x + c, each operation rounded as mpf rounds it."""
    p, d = _round(*cs[-1], bits), (0, 0)
    for c in reversed(cs[:-1]):
        d = _add(_mul(d, x, bits), p, bits)
        p = _add(_mul(p, x, bits), c, bits)
    return p, d


def _float(u) -> float:
    """The image u as float() reads its mpf: the nearest binary64, inf
    beyond the float range."""
    return to_float(from_man_exp(*u), rnd=round_nearest)


def _mid(u, v, bits) -> tuple:
    """(u + v) / 2, the sum rounded; the halving is exact."""
    m, e = _add(u, v, bits)
    return m, e - 1


def _neg_images(b, a, n) -> tuple:
    """-b_0..-b_{n-1} and -a_0..-a_{n-1} as images, so that the recurrence
    subtracts by adding them."""
    return ([(-m, e) for m, e in map(_image, b[:n])],
            [(-m, e) for m, e in map(_image, a[:n])])


# ---------------------------------------------------------------------------
# the monic three-term recurrence and the eigenvalues of its Jacobi matrix:
# n - 1 cut points with one eigenvalue between each pair of neighbours, then
# a Newton-Halley polish in each gap, seeded by the same iteration run in
# binary64 (Python floats) and carried on by one step at each level of a
# precision ladder of 150, 450, 1350, ... bits, so that usually one step
# runs at the working precision (Brent & Zimmermann, Modern Computer
# Arithmetic, 2010, 4.2).
# The eigensolver converts -b and -a to images once per matrix and runs the
# recurrence on them in two loops, _ttrr_d2 for the Halley steps and _sturm
# for a Sturm count with the sign of P_n, at an explicit precision `bits`,
# every step in the order and at the precision of the mpf loop it replaces.
# _ttrr_d2 keeps every degree it passes: the operators' sampled records and
# the table's P_n(0) read it too, so the recurrence is written here only.
# Only the set-up (Gershgorin ends, tolerance) runs in mpf.
# ---------------------------------------------------------------------------

def _ttrr_d2(nb, na, n, x, bits) -> list:
    """[(P_k(x), P_k'(x), P_k''(x)) for k = 0..n] as images, every step
    rounded to `bits` bits, from the images nb = -b and na = -a of the
    coefficients and the image x, by running the recurrence and its first
    two formal derivatives side by side:

        P_{k+1}   = (x - b_k) P_k   - a_k P_{k-1}
        P'_{k+1}  = P_k + (x - b_k) P'_k  - a_k P'_{k-1}
        P''_{k+1} = 2 P'_k + (x - b_k) P''_k - a_k P''_{k-1}

    Reads b_0..b_{n-1} and a_0..a_{n-1}; a_0 multiplies P_{-1} = 0.  A
    pass to degree n is a prefix of every longer pass at the same x."""
    zero = (0, 0)
    p_prev, p = zero, (1, 0)
    d_prev = d = s_prev = s = zero
    out = [(p, d, s)]
    for k in range(n):
        w, ak = _add(x, nb[k], bits), na[k]
        p, p_prev = _add(_mul(w, p, bits), _mul(ak, p_prev, bits), bits), p
        d, d_prev = _add(_add(p_prev, _mul(w, d, bits), bits), _mul(ak, d_prev, bits), bits), d
        s, s_prev = _add(_add((d_prev[0], d_prev[1] + 1), _mul(w, s, bits), bits),
                         _mul(ak, s_prev, bits), bits), s
        out.append((p, d, s))
    return out


def _sturm(nb, na, n, x, bits) -> tuple:
    """(count, p): the number of eigenvalues below x of the Jacobi matrix of
    the images nb = -b and na = -a, and the image p of P_n(x) by the steps
    of _ttrr_d2, so the two agree bit for bit.  The count is that of the
    k < n where P_{k+1}(x) has the sign of P_k(x), a zero taking the sign
    before it (Wilkinson, The Algebraic Eigenvalue Problem, 1965, 5.37), so
    x itself counts where P_n(x) = 0.  Images hold any exponent, so the
    values need no scaling into pivots."""
    count, up = 0, True
    p_prev, p = (0, 0), (1, 0)
    for k in range(n):
        p, p_prev = _add(_mul(_add(x, nb[k], bits), p, bits), _mul(na[k], p_prev, bits), bits), p
        if p[0] and (p[0] > 0) != up:
            up = not up
        else:
            count += 1
    return count, p


def _sign(nb, na, n, x, bits):
    """Whether P_n(x) > 0, read by _sturm; None where P_n(x) = 0."""
    m = _sturm(nb, na, n, x, bits)[1][0]
    return None if m == 0 else m > 0


def _separators(nb, na, lo, hi, bits):
    """(ends, up): lo, then n - 1 cuts, then hi, and the _sign of P_n at
    each of them.  The k-th cut has exactly k eigenvalues below it and P_n
    of the sign (-1)^(n - k) at it.  Bisection splits an interval only
    while a cut between its ends is missing, one pass of _sturm giving the
    count and the sign at each point.  A point where P_n vanishes or has the
    other sign lies on an eigenvalue at the working precision and cuts
    nothing, and the cut it missed may lie on either side of it.  None if a
    cut is still missing once bisection has run into adjacent ends at the
    working precision, which cannot separate the eigenvalues between them."""
    n = len(nb)
    ends = [lo] + [None] * (n - 1) + [hi]
    up = [_sign(nb, na, n, lo, bits)] + [None] * (n - 1) + [_sign(nb, na, n, hi, bits)]
    # [a, b) holds the eigenvalues ca + 1..cb and owes the cuts ca..cb: an
    # end that cuts nothing leaves its cut owed by both of its neighbours.
    # An interval whose ends have equal counts holds no eigenvalue and is
    # dropped, so beside such an end bisection follows a single path.
    todo = [(lo, 0, hi, n)]
    while todo:
        a, ca, b, cb = todo.pop()
        m = _mid(a, b, bits)
        if None not in ends[ca:cb + 1] or not _cmp(a, m) < 0 < _cmp(b, m):
            continue
        c, p = _sturm(nb, na, n, m, bits)
        if ends[c] is None and p[0] and (p[0] > 0) == ((n - c) % 2 == 0):
            ends[c], up[c] = m, p[0] > 0
        todo += [part for part in ((a, ca, m, c), (m, c, b, cb)) if part[1] < part[3]]
    return None if None in ends else (ends, up)


def _seed(fb, fa, n, lo, hi, bits) -> tuple:
    """The image where _polish starts in [lo, hi] (images): the guarded
    Newton-Halley iteration of _polish run in binary64 on fb and fa, the
    float images of the recurrence coefficients, from the midpoint.  It
    stops once its step is within a few ulps of the iterate, stops
    shrinking after it fell below 2^-26 of the bracket (the float rounding
    floor), or P_n is zero there in binary64; a float iterate is then good
    to about 50 bits, at a small fraction of the cost of one step at the
    working precision.  The midpoint _mid(lo, hi, bits) if a step leaves
    the bracket, P_n' is zero, or a value is not finite (coefficients or
    P_n beyond the float range), and when the iterate does not lie strictly
    inside (lo, hi).  Only the starting point comes from here: the bracket,
    the stopping rule and the precision of _polish do not depend on it."""
    mid = _mid(lo, hi, bits)
    flo, fhi, x = _float(lo), _float(hi), _float(mid)
    # a step of 2^-26 of the bracket leaves a cubic error far below binary64
    # resolution, so a later step that does not shrink is rounding noise
    noise, last = (fhi - flo) * 2.0 ** -26, math.inf
    for _ in range(SEED_STEPS):
        p_prev, p = 0.0, 1.0
        d_prev = d = s_prev = s = 0.0
        for k in range(n):
            w = x - fb[k]
            ak = fa[k]
            p, p_prev = w * p - ak * p_prev, p
            d, d_prev = p_prev + w * d - ak * d_prev, d
            s, s_prev = 2 * d_prev + w * s - ak * s_prev, s
        if d == 0 or not (math.isfinite(p) and math.isfinite(d) and math.isfinite(s)):
            return mid
        if p == 0:
            break
        dx = p / d
        h = 1 - dx * s / (2 * d)
        if h != 0:
            dx /= h
        x1 = x - dx
        if not flo <= x1 <= fhi:
            return mid
        if abs(dx) >= last and last <= noise:
            break
        x, last = x1, abs(dx)
        if last <= 4 * math.ulp(x):
            break
    m, q = x.as_integer_ratio()
    x = m, 1 - q.bit_length()
    return x if _cmp(lo, x) < 0 < _cmp(hi, x) else mid


def _step(level, work, x, bracket) -> tuple:
    """One guarded Halley step on P_n from the image x: (x, bracket, dx).
    P_n, P_n' and P_n'' come from _ttrr_d2 on `level`, (bits, nb, na) with
    -b and -a rounded to `bits`, and every operation is rounded to `bits`.
    The step is taken only if it stays in `bracket`, (lo, hi, lo_up) with
    lo_up true when P_n(lo) > 0.  Otherwise the bracket is halved at its
    midpoint m by the _sign of P_n at the working precision, read on the
    level `work`, keeping the half where P_n changes sign; x becomes the
    new midpoint and dx is None.  Where P_n or P_n' is 0, x stays and dx
    is 0."""
    bits, nb, na = level
    lo, hi, lo_up = bracket
    f, fp, fpp = _ttrr_d2(nb, na, len(nb), x, bits)[-1]
    if not f[0] or not fp[0]:
        return x, bracket, (0, 0)
    dx = _div(f, fp, bits)
    t = _div(_mul(dx, fpp, bits), (fp[0], fp[1] + 1), bits)
    h = _add((1, 0), _neg(t), bits)
    if h[0]:
        dx = _div(dx, h, bits)
    x1 = _sub(x, dx, bits)
    if _cmp(lo, x1) <= 0 <= _cmp(hi, x1):
        return x1, bracket, dx
    bits, nb, na = work
    m = _mid(lo, hi, bits)
    bracket = (lo, m, lo_up) if _sign(nb, na, len(nb), m, bits) != lo_up else (m, hi, lo_up)
    return _mid(bracket[0], bracket[1], bits), bracket, None


def _exact_sum(u, v) -> tuple:
    """u + v as an image, exactly."""
    e = min(u[1], v[1])
    return (u[0] << u[1] - e) + (v[0] << v[1] - e), e


def _settled(x, dx, bracket, n, tol, bits) -> bool:
    """Whether the accepted Halley step dx onto the image x left nothing
    for a next step to change in x rounded to `bits` bits, as long as
    evaluation noise stays within `tol`, as the stopping rule of _polish
    assumes.  Two tests:
    - the cubic bound n^2 |dx|^3 / (2 d^2) on the error of x is at most
      tol 2^-8, d the distance from x to the nearer end of the bracket.
      Every other zero of P_n lies outside the bracket, so Halley's
      constant (S1^2 + S2) / 2, S_k the sum of 1 / (x - x_j)^k over the
      other zeros x_j, is at most n (n - 1) / (2 d^2);
    - x lies more than 2 tol from a tie of the rounding to `bits`:
      x - 2 tol and x + 2 tol round alike.  Such ties lie closer together
      than 2 tol near 0, so the zero rule of _polish is never skipped.
    The next step would then move x by at most tol 2^-8 plus the noise."""
    lo, hi, _ = bracket
    d, d2 = _exact_sum(x, _neg(lo)), _exact_sum(hi, _neg(x))
    if _cmp(d2, d) < 0:
        d = d2
    (m, e), (mt, et) = dx, tol
    if _cmp((n * n * abs(m) ** 3, 3 * e), (mt * d[0] ** 2, et + 2 * d[1] - 7)) > 0:
        return False
    t = mt, et + 1
    return _cmp(_round(*_exact_sum(x, _neg(t)), bits), _round(*_exact_sum(x, t), bits)) == 0


def _polish(levels, fb, fa, lo, hi, lo_up, tol, bits) -> tuple:
    """The image of the one zero of P_n in [lo, hi] (images, as `tol` is),
    which the caller rounds to `bits` bits: guarded Halley steps (_step)
    from the binary64 seed of _seed (fb and fa are the float images of b
    and a).  `levels` is the precision ladder, its last level the working
    precision; each level below takes one step, as a Halley step triples
    the correct bits.  At most `bits` steps follow at the working
    precision, until a step is within `tol` or _settled.  A zero within
    `tol` of 0 is exactly 0 where P_n(0) is."""
    *ladder, work = levels
    wbits, nb, na = work
    n, bracket = len(nb), (lo, hi, lo_up)
    x = _seed(fb, fa, n, lo, hi, wbits)
    for level in ladder:
        x, bracket, _ = _step(level, work, x, bracket)
    for _ in range(bits):
        x, bracket, dx = _step(work, work, x, bracket)
        if dx is not None and (_cmp((abs(dx[0]), dx[1]), tol) <= 0
                               or _settled(x, dx, bracket, n, tol, bits)):
            break
    if _cmp((abs(x[0]), x[1]), tol) <= 0 and _sign(nb, na, n, (0, 0), wbits) is None:
        return 0, 0
    return x


def _interlaced(levels, fb, fa, ends, up, tol, bits):
    """The images of the n zeros of P_n, one polished in each gap of the
    n + 1 ascending images `ends`, where P_n has the _sign `up`, for
    rounding to `bits` bits; None unless P_n alternates in sign across them
    without vanishing, which proves each gap holds exactly one zero."""
    if any(_cmp(lo, hi) >= 0 for lo, hi in zip(ends, ends[1:])):
        return None
    if None in up or any(s == t for s, t in zip(up, up[1:])):
        return None
    return [_polish(levels, fb, fa, ends[k], ends[k + 1], up[k], tol(ends[k], ends[k + 1]), bits)
            for k in range(len(ends) - 1)]


def tridiag_eigenvalues(diag, off2, ctx: PrecisionContext, cuts=None) -> list:
    """All eigenvalues of the symmetric tridiagonal matrix, ascending.

    `off2` holds the products of the off-diagonal pairs, i.e. the squared
    off-diagonal entries: with b_k = diag[k] and a_k = off2[k - 1] these are
    the coefficients of the monic recurrence, and the eigenvalues are the
    zeros of P_n, n = len(diag).  The off2 entries must be strictly
    positive, which guarantees the eigenvalues are simple.

    The Gershgorin interval and n - 1 cut points split the line into n
    gaps, and if P_n alternates in sign across their ends each gap holds
    exactly one eigenvalue.  A guarded Newton-Halley iteration on P_n
    through _ttrr_d2 polishes it to full context precision, and the sign of
    P_n halves the gap whenever the iteration leaves it.  The iteration
    starts where the same iteration in binary64 stopped, on float images of
    the coefficients converted once per call, or at the midpoint of the gap
    when binary64 cannot hold the coefficients or P_n.  One step at each
    level of 150, 450, 1350, ... bits below the working precision, on
    images of the coefficients rounded to that level once per call, leaves
    usually one step at the working precision, which the cubic error bound
    stops away from a rounding tie.  The loops run on integer images of
    the coefficients, also converted once per call.  The cuts are
    `cuts`, the n - 1 ascending zeros of P_{n-1}, which interlace with the
    eigenvalues; if none are given or P_n does not alternate across them,
    bisection places one cut between each pair of neighbouring eigenvalues,
    reading a Sturm count and the sign of P_n from one pass of the
    recurrence at each point.  Both routes converge to the same rounded
    zeros (the tests compare them bit for bit).  An eigenvalue within the stopping tolerance
    of 0 is returned as exactly 0 when P_n(0) is exactly 0 at the working
    precision.  ConvergenceError if the working precision cannot separate
    two eigenvalues.
    """
    n = len(diag)
    if len(off2) != max(0, n - 1):
        raise DomainError("off2 must have length len(diag) - 1")
    for e2 in off2:
        if not e2 > 0:
            raise DomainError("off2 entries must be strictly positive")
    if cuts is not None and len(cuts) != max(0, n - 1):
        raise DomainError("cuts must have length len(diag) - 1")
    if n == 0:
        return []
    work = ctx.bits + 32
    with mp.workprec(work):
        d = [mp.mpf(v) for v in diag]
        off2 = [mp.mpf(v) for v in off2]
        if n == 1:
            return [ctx.round(d[0])]
        a_rec = [mp.mpf(0)] + off2
        # binary64 images for _seed, inf beyond the float range, and the
        # integer images of -b and -a for every loop at `work`
        fd, fa = [float(v) for v in d], [float(v) for v in a_rec]
        nb, na = _neg_images(d, a_rec, n)
        # the precision ladder of _polish: nb and na rounded to 150, 450,
        # 1350, ... bits below `work` (the last at least work / 3), then `work`
        levels, bits = [], 150
        while bits < work:
            levels.append((bits, [_round(*u, bits) for u in nb], [_round(*u, bits) for u in na]))
            bits *= 3
        levels.append((work, nb, na))
        # square roots only for the Gershgorin bracket
        e = [mp.sqrt(v) for v in off2]

        lo = min(d[i] - ((e[i - 1] if i > 0 else 0) + (e[i] if i < n - 1 else 0))
                 for i in range(n))
        hi = max(d[i] + ((e[i - 1] if i > 0 else 0) + (e[i] if i < n - 1 else 0))
                 for i in range(n))
        spread = hi - lo
        if spread == 0:
            spread = mp.mpf(1)
        lo -= spread * mp.mpf(2) ** -20
        hi += spread * mp.mpf(2) ** -20
        spread = hi - lo
        # the tolerance max(|a + b| / 2, spread * 2^-16) * 2^-(ctx.bits + 8)
        # on images: the sum rounded to `work` bits, the rest exact
        fine = -(ctx.bits + 8)
        m, e = _image(spread * mp.mpf(2) ** -16)
        floor = m, e + fine
        lo, hi = _image(lo), _image(hi)

        def tol(a, b):
            m, e = _add(a, b, work)
            t = abs(m), e - 1 + fine
            return t if _cmp(t, floor) > 0 else floor

        out = None
        if cuts is not None:
            ends = [lo] + [_image(mp.mpf(c)) for c in cuts] + [hi]
            out = _interlaced(levels, fd, fa, ends,
                              [_sign(nb, na, n, x, work) for x in ends], tol, ctx.bits)
        if out is None:
            cut = _separators(nb, na, lo, hi, work)
            if cut is not None:
                out = _interlaced(levels, fd, fa, *cut, tol, ctx.bits)
        if out is None:
            raise ConvergenceError("the working precision cannot separate the eigenvalues")
    return [_mpf(_round(*x, ctx.bits)) for x in out]
