"""The pinned outputs: each artefact's bytes against its sha256 in golden.sha256.

Each generator makes the calls that pin one artefact, so a moved byte fails
on every host and Python.  A change that moves bytes on purpose pastes the
line a failure prints into the manifest and lists old -> new in CHANGES.md.
"""

import hashlib
import re
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from katzlab import GraphSpec, agreement, class_structures_match, cli, katz_cycle_exact, katz_cycle_matrix
from katzlab import katz_path_exact, katz_path_matrix, pair_scores, rank_pairs, score_classes
from katzlab.dpoly import D_cycle_denominator, D_parity_form, d_recursive
from katzlab.graphs import spectral_radius
from katzlab.ordering import cycle_numerator_gap, p_gap, p_tilde
from katzlab.verify import DPOLY_GRID, DPOLY_PROBED, katz_grid

MANIFEST = Path(__file__).with_name("golden.sha256")
# no-ops on Python 3.10.0-3.10.6, which have no int-to-str digit limit
digit_limit = getattr(sys, "get_int_max_str_digits", lambda: None)
set_digit_limit = getattr(sys, "set_int_max_str_digits", lambda limit: None)


def _exact(*values):
    """repr of the list of values, with the int-to-str digit limit lifted while it prints."""
    before = digit_limit()
    set_digit_limit(0)
    try:
        return repr(list(values)).encode()
    finally:
        set_digit_limit(before)


def _rankings(graphs, candidates):
    return "\n".join(
        repr((agreement(g, alphas), class_structures_match(g, alphas)))
        for g in graphs
        for alphas in [[a for a in sorted(candidates) if a < 1.0 / spectral_radius(g)]]
    ).encode()


def _alpha_sweeps():
    """Gap polynomials, arc margins and cycle determinants on the verify grids."""
    calls = [(d_recursive, (n,), DPOLY_PROBED) for n in range(31)]
    calls += [(d_recursive, (n,), katz_grid(GraphSpec.path(n))) for n in range(2, 21)]
    calls += [(f, (n,), DPOLY_GRID) for n in range(3, 41) for f in (D_cycle_denominator, D_parity_form)]
    calls += [(D_cycle_denominator, (n,), katz_grid(GraphSpec.cycle(n))) for n in range(3, 21)]
    calls += [(f, (n, j), DPOLY_PROBED) for n in range(3, 31) for j in (1, 2, 3) if n > j + 1 for f in (p_gap, p_tilde)]
    calls += [(cycle_numerator_gap, (n, k), DPOLY_GRID) for n in range(5, 21) for k in range(1, n // 2)]
    lines = (f"{f.__name__} {' '.join(map(str, args))} {f(*args, alphas).tolist()!r}" for f, args, alphas in calls)
    return "\n".join(lines).encode()


R5 = 0.4472135954999579  # 1/sqrt(5) as a double
# artefact name: the generator of its bytes, or the katzlab command line whose --out file it is
GENERATORS = {
    "katz_path_matrix_300.bin": lambda: katz_path_matrix(300, (0.2, 0.3, 0.46)).tobytes(),
    "katz_cycle_matrix_301.bin": lambda: katz_cycle_matrix(301, (0.2, 0.3, 0.46)).tobytes(),
    "katz_exact.txt": lambda: _exact(
        katz_path_exact(320, 1, 2, 0.46),
        katz_path_exact(600, 300, 301, Fraction(1, 5)),
        katz_path_exact(57, 3, 3, 0.499),
        *(katz_cycle_exact(601, 1, 1 + k, 0.3) for k in (0, 1, 300)),
    ),
    "katz_exact_rational.txt": lambda: _exact(
        katz_path_exact(2000, 1, 2, 0.46),
        katz_path_exact(2000, 1000, 1000, 0.46),
        katz_path_exact(401, 7, 395, Fraction(2, 7)),
        katz_path_exact(60, 30, 30, Fraction(5 * 10**29, 10**30 + 1)),
        *(katz_cycle_exact(1001, 1, 1 + k, Fraction(3, 7)) for k in (0, 1, 500)),
        *(katz_cycle_exact(2000, 1, 1 + k, 0.499) for k in (0, 1000)),
    ),
    "ranking.txt": lambda: _rankings(
        [*map(GraphSpec.path, (10, 57, 120)), *map(GraphSpec.cycle, (9, 100, 501))], (0.2, 0.3, R5, 0.46, 0.47, 0.49)
    ),
    "ranking_grid.txt": lambda: _rankings(
        [GraphSpec(f, n) for f, lo in (("path", 2), ("cycle", 3)) for n in range(lo, 121)],
        {k / 50 for k in range(1, 50)} | {1e-6, 3e-6, 1e-5, R5, 0.4473, 0.499, 0.52, 0.55},
    ),
    "single_metric.txt": lambda: "\n".join(
        repr((pair_scores(g, m, a), rank_pairs(g, m, a), [sorted(c) for c in score_classes(g, m, a)]))
        for g in [*map(GraphSpec.path, (2, 7, 40)), *map(GraphSpec.cycle, (3, 8, 41))]
        for m, a in (("resistance", None), ("distance", None), ("katz", 0.3), ("katz", 0.46))
    ).encode(),
    "ranking_large_cycles.txt": lambda: _rankings(
        map(GraphSpec.cycle, (1000, 1001, 2000, 2001)), (0.2, 0.3, R5, 0.46, 0.49)
    ),
    "alpha_sweeps.txt": _alpha_sweeps,
    **{f"scatter_{f}_{n}.csv": f"scatter --family {f} --n {n}" for n in (57, 600) for f in ("path", "cycle")},
    "converge_path.csv": "converge --family path --i 1 --j 3 --alpha 0.3",
    "converge_cycle.csv": "converge --family cycle --offset 2 --alpha 0.3",
    "cutoff_j1.csv": "cutoff --j 1 --n-lo 6 --n-hi 20",
    "cutoff_j1_50_80.csv": "cutoff --j 1 --n-lo 50 --n-hi 80",
    "cutoff_j1_140_170.csv": "cutoff --j 1 --n-lo 140 --n-hi 170",
}


def test_golden_manifest_names_every_artefact():
    entries = [line.split("  ") for line in MANIFEST.read_text().splitlines()]
    # each artefact once, and the same 18 as the generators
    assert sorted(name for _, name in entries) == sorted(GENERATORS) and len(GENERATORS) == 18
    assert all(re.fullmatch("[0-9a-f]{64}", digest) for digest, _ in entries)


@pytest.mark.parametrize("name", list(GENERATORS))
def test_golden_artefact_bytes(name, tmp_path):
    before, generate = digit_limit(), GENERATORS[name]
    if isinstance(generate, str):
        assert cli.main([*generate.split(), "--out", str(tmp_path / name)]) == 0
        generate = (tmp_path / name).read_bytes
    line = f"{hashlib.sha256(generate()).hexdigest()}  {name}"
    assert digit_limit() == before, "the generator left the int-to-str digit limit changed"
    assert line in MANIFEST.read_text().splitlines(), f"{name} moved; its manifest line is now:\n{line}"
