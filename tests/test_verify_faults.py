"""Named faults that ``katzlab verify`` must catch.

Each fault patches one module attribute with ``monkeypatch``, and the suite
named with it must then fail at level quick: with its usual number of checks,
and with exactly the failures listed, in order.  A fault that passes shows a
tolerance too wide for what the suite checks, or a suite that does not read
what it claims to check.
"""

import pytest

from katzlab import katz, verify
from test_verify import _skewed_oracle


def _scaled(original, factor):
    """original with its value multiplied by factor."""

    def scaled(*args):
        return original(*args) * factor

    return scaled


# name: (module, attribute, the patched value from the original, suite, its checks at quick,
#        the start of each failure in order, so one per failure)
FAULTS = {
    "katz_limit_path x (1 + 1e-9)": (
        katz, "katz_limit_path", lambda f: _scaled(f, 1 + 1e-9), verify.suite_limit_convergence, 36, ("path (",) * 9
    ),
    "katz_limit_cycle x (1 + 1e-9)": (
        katz, "katz_limit_cycle", lambda f: _scaled(f, 1 + 1e-9), verify.suite_limit_convergence, 36,
        ("cycle offset",) * 9,
    ),
    # the inverse oracle of the 9-cycle reads Katz(1, 3) 1e-6 high, off the arc-2 class
    "non-circulant katz_oracle_inverse": (
        katz, "katz_oracle_inverse", _skewed_oracle, verify.suite_cycle_translation_invariance, 663,
        tuple(f"n=9 k=2 alpha={a}:" for a in (0.1, 0.3, 0.46)),
    ),
}


@pytest.mark.parametrize("fault", list(FAULTS))
def test_fault_fails_its_suite_at_quick(fault, monkeypatch):
    module, name, make, suite, checks, starts = FAULTS[fault]
    monkeypatch.setattr(module, name, make(getattr(module, name)))
    res = suite("quick")
    assert not res.passed
    assert res.max_err > res.tolerance
    assert res.checks == checks
    # every check of the patched routine fails, and nothing else
    assert len(res.failures) == len(starts)
    assert all(map(str.startswith, res.failures, starts))
