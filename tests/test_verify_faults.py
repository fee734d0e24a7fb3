"""Named faults that ``katzlab verify`` must catch.

Each fault patches one module attribute with ``monkeypatch``, and the suite
named with it must then fail at level quick.  A fault that passes shows a
tolerance too wide for what the suite checks.
"""

import pytest

from katzlab import katz, verify


def _scaled(original, factor):
    """original with its value multiplied by factor."""

    def scaled(*args):
        return original(*args) * factor

    return scaled


# name: (module, attribute, the patched value from the original, suite, start of every failure)
FAULTS = {
    "katz_limit_path x (1 + 1e-9)": (
        katz, "katz_limit_path", lambda f: _scaled(f, 1 + 1e-9), verify.suite_limit_convergence, "path ("
    ),
    "katz_limit_cycle x (1 + 1e-9)": (
        katz, "katz_limit_cycle", lambda f: _scaled(f, 1 + 1e-9), verify.suite_limit_convergence, "cycle offset"
    ),
}


@pytest.mark.parametrize("fault", list(FAULTS))
def test_fault_fails_its_suite_at_quick(fault, monkeypatch):
    module, name, make, suite, prefix = FAULTS[fault]
    monkeypatch.setattr(module, name, make(getattr(module, name)))
    res = suite("quick")
    assert not res.passed
    assert res.max_err > res.tolerance
    # every check of the patched routine fails, and nothing else
    assert len(res.failures) == 9
    assert all(failure.startswith(prefix) for failure in res.failures)
