"""Shared test settings: property tests draw the same examples on every run, in CI and outside it.

Hypothesis derandomizes by default only when it detects CI, so without a
profile a workstation run draws other examples than the CI job, and other
ones at each run.  The profile below sets derandomize=True on top of the
profile already active (the built-in "default", or "ci" under CI), so
max_examples and deadlines stay whatever they were; a test's own
@settings still wins over it.
"""

from hypothesis import settings

settings.register_profile("derandomized", settings(), derandomize=True)
settings.load_profile("derandomized")
