from __future__ import annotations

import mpmath as mp
import pytest

from tfreud.kernel import PrecisionContext

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


def mpf_close(a, b, tol) -> bool:
    return abs(mp.mpf(a) - mp.mpf(b)) <= mp.mpf(tol)
