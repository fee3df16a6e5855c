"""Reference values for the benchmark's checks, computed apart from tfreud.

Everything here is written from the formulas of the weight exp(-z x^4) on
(0, inf) and runs in mpmath at a precision the caller chooses, well above the
library's.  Nothing here imports tfreud.
"""
from __future__ import annotations

import mpmath as mp


def exact_moments(z: str, count: int, prec: int) -> list:
    """mu_j(z) = Gamma((j+1)/4) / (4 z^((j+1)/4)) for j < count.

    Four Gamma values seed the exact recurrence mu_{j+4} = (j+1) mu_j / (4z),
    so each further moment costs one multiplication and one division.
    """
    with mp.workprec(prec):
        zv = mp.mpf(z)
        mu = [mp.gamma(mp.mpf(j + 1) / 4) / (4 * zv ** (mp.mpf(j + 1) / 4))
              for j in range(min(4, count))]
        for j in range(4, count):
            mu.append((j - 3) * mu[j - 4] / (4 * zv))
        return mu


def recurrence_reference(z: str, n_max: int, prec: int):
    """(a, b, h) for n = 0..n_max from exact moments by the Chebyshev
    algorithm (Gautschi 2004, section 2.1.7), at `prec` bits throughout.

    sigma_{k,l} = <u, P_k x^l> obeys
    sigma_{k,l} = sigma_{k-1,l+1} - b_{k-1} sigma_{k-1,l} - a_{k-1} sigma_{k-2,l},
    with h_k = sigma_{k,k}, a_k = h_k / h_{k-1} and
    b_k = sigma_{k,k+1}/h_k - sigma_{k-1,k}/h_{k-1}.
    """
    length = 2 * n_max + 2
    mu = exact_moments(z, length, prec)
    with mp.workprec(prec):
        a, b, h = [mp.mpf(0)], [mu[1] / mu[0]], [mu[0]]
        older, old = [mp.mpf(0)] * length, mu
        for k in range(1, n_max + 1):
            row = [mp.mpf(0)] * length
            for l in range(k, length - k):
                row[l] = old[l + 1] - b[k - 1] * old[l] - a[k - 1] * older[l]
            h.append(row[k])
            a.append(row[k] / old[k - 1])
            b.append(row[k + 1] / row[k] - old[k] / old[k - 1])
            older, old = old, row
        return a, b, h


def first_zero(z: str, prec: int) -> mp.mpf:
    """x_{1,1} = mu_1 / mu_0 = Gamma(1/2) / (Gamma(1/4) z^(1/4))."""
    with mp.workprec(prec):
        return mp.gamma(mp.mpf(1) / 2) / (mp.gamma(mp.mpf(1) / 4) * mp.mpf(z) ** mp.mpf("0.25"))


def orthogonality_defect(roots: list, mu: list, prec: int) -> mp.mpf:
    """max_j |<prod (x - x_k), x^j>| / sum_i |c_i| mu_{i+j} over j < n.

    c_i are the monomial coefficients of prod (x - x_k).  For the zeros of
    P_n the pairings vanish; a perturbed zero makes every pairing nonzero,
    relative to the size of its terms.
    """
    n = len(roots)
    with mp.workprec(prec):
        c = [mp.mpf(1)]
        for r in roots:
            c = [(c[i - 1] if i else 0) - r * (c[i] if i < len(c) else 0)
                 for i in range(len(c) + 1)]
        worst = mp.mpf(0)
        for j in range(n):
            pairing = mp.fsum(c[i] * mu[i + j] for i in range(n + 1))
            scale = mp.fsum(abs(c[i]) * mu[i + j] for i in range(n + 1))
            worst = max(worst, abs(pairing) / scale)
        return worst

