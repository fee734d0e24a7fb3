"""End-to-end acceptance sweeps for the whole package.

Each test prints one PASS/FAIL line (visible under pytest -s; the same
verdict shows up as the test outcome either way) and asserts the condition
it printed, so a failing sweep names itself in both channels.

Checks that compare two float routes use the stated relative tolerances.
The large-size gap ordering is checked in exact rational arithmetic:
consecutive gaps fall below double resolution long before n = 320, and a
one-sided strictly monotone approach is the same statement as strictly
decreasing absolute gaps.
"""

import hashlib
import time
from fractions import Fraction

import numpy as np

from katzlab import cli, dpoly, katz, ordering
from katzlab.dpoly import INV_SQRT5
from katzlab.graphs import GraphSpec, graph_distance, spectral_radius


def _report(label, failures, extra=""):
    status = "PASS" if not failures else "FAIL"
    tail = f"  [{extra}]" if extra else ""
    print(f"{status}  {label}{tail}")
    assert not failures, f"{label}: first failures {failures[:3]}"


def _grid(bound):
    """Multiples of 0.02 strictly inside (0, bound)."""
    return [k / 50 for k in range(1, 50) if k / 50 < bound]


def test_closed_katz_matches_dense_inverse():
    started = time.perf_counter()
    failures = []
    worst = 0.0
    for family in ("path", "cycle"):
        for n in range(5, 41):
            g = GraphSpec(family, n)
            off_diag = ~np.eye(n, dtype=bool)
            for alpha in _grid(1.0 / spectral_radius(g)):
                closed = (
                    katz.katz_path_matrix(n, alpha)
                    if family == "path"
                    else katz.katz_cycle_matrix(n, alpha)
                )
                oracle = katz.katz_oracle_inverse(g, alpha)
                num = np.abs(closed - oracle)[off_diag]
                den = np.maximum(np.abs(closed), np.abs(oracle))[off_diag]
                err = float((num / den).max())
                worst = max(worst, err)
                if err > 1e-10:
                    failures.append(f"{family} n={n} alpha={alpha}: rel={err:.3e}")
    elapsed = time.perf_counter() - started
    if elapsed >= 30.0:
        failures.append(f"sweep took {elapsed:.1f}s, budget 30s")
    _report(
        "closed-form katz equals the dense inverse off-diagonal (rel 1e-10)",
        failures,
        f"worst {worst:.2e}, {elapsed:.1f}s",
    )


def test_d_identity_sweep():
    started = time.perf_counter()
    failures = []
    alphas = [k / 100 for k in range(1, 50)] + [INV_SQRT5, 0.499]

    def err(a, b):
        # absolute below magnitude 1, relative above; every d value is in (0, 1]
        return abs(a - b) / max(abs(a), abs(b), 1.0)

    for alpha in alphas:
        seq = np.array(dpoly.d_sequence(101, alpha))
        a2 = alpha * alpha
        # recursion against the independently accumulated closed sum
        for n in range(101):
            if err(dpoly.d_closed(n, alpha), seq[n]) > 1e-12:
                failures.append(f"closed sum n={n} alpha={alpha}")
        for n in range(2, 101):
            # split at every interior k: d_n = d_k d_{n-k} - a^2 d_{k-1} d_{n-k-1}
            rhs = seq[1:n] * seq[n - 1 : 0 : -1] - a2 * seq[0 : n - 1] * seq[n - 2 :: -1]
            if float(np.abs(rhs - seq[n]).max()) > 1e-12 * max(float(seq[n]), 1.0):
                failures.append(f"splitting n={n} alpha={alpha}")
        for n in range(1, 101):
            # d_k d_n - d_{k-1} d_{n+1} = a^(2k) d_{n-k} for k = 1..n
            lhs = seq[1 : n + 1] * seq[n] - seq[0:n] * seq[n + 1]
            rhs = a2 ** np.arange(1, n + 1) * seq[n - 1 :: -1]
            scale = np.maximum(np.maximum(np.abs(lhs), np.abs(rhs)), 1.0)
            if float((np.abs(lhs - rhs) / scale).max()) > 1e-12:
                failures.append(f"product n={n} alpha={alpha}")
        # strict sandwich d_{n-1} > d_n > d_{n-1}/2 > 0 from n = 2 on
        body = seq[2:101]
        prev = seq[1:100]
        if not (np.all(prev > body) and np.all(body > 0.5 * prev) and np.all(prev > 0.0)):
            failures.append(f"bounds alpha={alpha}")
    # special points, both evaluators, n up to 100
    half = dpoly.d_sequence(100, 0.5)
    root5 = dpoly.d_sequence(100, INV_SQRT5)
    for n in range(101):
        if err(dpoly.d_special_half(n), half[n]) > 1e-12:
            failures.append(f"half special n={n}")
        if err(dpoly.d_special_root5(n), root5[n]) > 1e-12:
            failures.append(f"root5 special n={n}")
    # tail ratio approaches the closed constant
    for alpha in (0.1, 0.3, 0.45):
        seq400 = dpoly.d_sequence(403, alpha)
        for k in (1, 2, 3):
            if abs(seq400[400 + k] / seq400[400] - dpoly.ratio_constant(k, alpha)) > 1e-8:
                failures.append(f"ratio limit k={k} alpha={alpha}")
    # alpha^n / d_n dies like 2 alpha / (n + 1)
    for alpha in alphas:
        seq = dpoly.d_sequence(100, alpha)
        power = 1.0
        for n in range(1, 101):
            power *= alpha
            if power / seq[n] > 2.0 * alpha / (n + 1) * (1.0 + 1e-13):
                failures.append(f"vanishing ratio n={n} alpha={alpha}")
    # golden-ratio lower bound below the probe point
    for alpha in [a for a in alphas if a < INV_SQRT5]:
        seq = dpoly.d_sequence(100, alpha)
        for n in range(1, 101):
            if seq[n] < dpoly.fib_ratio(n) * seq[n - 1] - 1e-15:
                failures.append(f"golden bound n={n} alpha={alpha}")
    elapsed = time.perf_counter() - started
    if elapsed >= 5.0:
        failures.append(f"sweep took {elapsed:.1f}s, budget 5s")
    _report(
        "d-polynomial identity sweep to n=100 (1e-12; tail ratio 1e-8)",
        failures,
        f"{elapsed:.1f}s",
    )


def test_determinant_identities():
    failures = []
    for n in range(2, 41):
        for alpha in _grid(1.0 / spectral_radius(GraphSpec.path(n))):
            a = katz.determinant_path(n, alpha)
            b = dpoly.d_recursive(n, alpha)
            if abs(a - b) > 1e-11 * max(abs(a), abs(b)):
                failures.append(f"path n={n} alpha={alpha}")
    for n in range(3, 41):
        for alpha in _grid(0.5):
            a = katz.determinant_cycle(n, alpha)
            b = dpoly.D_cycle_denominator(n, alpha)
            if abs(a - b) > 1e-11 * max(abs(a), abs(b)):
                failures.append(f"cycle n={n} alpha={alpha}")
    for n in range(3, 101):
        for alpha in _grid(0.5):
            a = dpoly.D_parity_form(n, alpha)
            b = dpoly.D_cycle_denominator(n, alpha)
            if abs(a - b) > 1e-12 * max(abs(a), abs(b)):
                failures.append(f"parity n={n} alpha={alpha}")
    _report(
        "graph determinants match the polynomial forms (rel 1e-11; parity 1e-12)",
        failures,
    )


def test_cycle_ranking_agreement():
    started = time.perf_counter()
    failures = []
    for n in range(5, 31):
        g = GraphSpec.cycle(n)
        for alpha in _grid(0.5):
            report = ordering.agreement(g, alpha)
            if not report.all_agree():
                failures.append(f"n={n} alpha={alpha}: witness {report.witness}")
            if not ordering.class_structures_match(g, alpha):
                failures.append(f"n={n} alpha={alpha}: tie classes differ")
    spotlight = ordering.agreement(GraphSpec.cycle(15), 0.46)
    if not spotlight.all_agree():
        failures.append("cycle(15) at 0.46 disagrees")
    elapsed = time.perf_counter() - started
    if elapsed >= 20.0:
        failures.append(f"sweep took {elapsed:.1f}s, budget 20s")
    _report(
        "all three metrics rank cycle pairs identically on the full grid",
        failures,
        f"{elapsed:.1f}s",
    )


def test_path_ranking_agreement_and_inversion():
    failures = []
    for n in range(3, 31):
        g = GraphSpec.path(n)
        for alpha in _grid(INV_SQRT5):
            report = ordering.agreement(g, alpha)
            if not report.katz_vs_resistance:
                failures.append(f"n={n} alpha={alpha}: katz vs resistance inverted")
    report = ordering.agreement(GraphSpec.path(10), 0.46)
    if report.katz_vs_resistance or report.katz_vs_distance:
        failures.append("path(10) at 0.46 should invert against both metrics")
    w = report.witness
    if w is None:
        failures.append("missing inversion witness")
    else:
        da = graph_distance(report.graph, w.pair_a.i, w.pair_a.j)
        db = graph_distance(report.graph, w.pair_b.i, w.pair_b.j)
        if {da, db} != {1, 2} and abs(da - db) != 1:
            failures.append(f"witness distances {da},{db} are not adjacent")
    _report(
        "path rankings agree below the probe point and invert at 0.46",
        failures,
    )


def test_gap_polynomial_probe_endpoints():
    failures = []
    for j in (1, 2, 3):
        value = ordering.p_tilde(4 + j, j, 0.5)
        if abs(value) > 1e-14:
            failures.append(f"span 4 j={j}: p_tilde(1/2)={value!r}")
        for span in range(5, 51):
            if not ordering.p_tilde(span + j, j, 0.5) < 0.0:
                failures.append(f"span {span} j={j}: p_tilde(1/2) not negative")
        for span in range(2, 51):
            if not ordering.p_tilde(span + j, j, INV_SQRT5) > 0.0:
                failures.append(f"span {span} j={j}: p_tilde(probe) not positive")
        for span in range(2, 49):
            a = ordering.p_tilde(span + j, j, INV_SQRT5)
            b = ordering.p_tilde(span + 2 + j, j, INV_SQRT5)
            if not a > b:
                failures.append(f"span {span} j={j}: same-parity values not decreasing")
    _report(
        "reduced gap polynomial: zero at span 4, negative beyond, positive at the probe",
        failures,
    )


def test_cutoff_root_sweep():
    started = time.perf_counter()
    failures = []
    try:
        table = ordering.cutoff_table(1, range(6, 57))
    except ordering.BracketError as exc:
        failures.append(f"sweep raised {exc!r}")
        table = []
    roots = {r.n: r.root for r in table}
    for r in table:
        if not INV_SQRT5 < r.root < 0.5:
            failures.append(f"n={r.n}: root {r.root!r} outside the open bracket")
    values = [r.root for r in table]
    if not all(a > b for a, b in zip(values, values[1:])):
        failures.append("roots are not strictly decreasing in n")
    if table:
        gap = roots[30] - roots[20]
        if not gap < 0.0:
            failures.append(f"root(30) - root(20) = {gap!r} is not negative")
        if not abs(gap) < 1e-4:
            failures.append(f"|root(30) - root(20)| = {abs(gap):.3e} exceeds 1e-4")
        # regression pin on the measured value
        if abs(gap - -2.125821704934694e-05) > 1e-9:
            failures.append(f"measured gap moved: {gap!r}")
    elapsed = time.perf_counter() - started
    if elapsed >= 10.0:
        failures.append(f"sweep took {elapsed:.1f}s, budget 10s")
    _report(
        "cut-off roots exist for spans 5..55, stay in the bracket, decrease",
        failures,
        f"{elapsed:.1f}s",
    )


def test_limit_convergence():
    failures = []
    sizes = (10, 20, 40, 80, 160, 320)
    for alpha in (0.1, 0.3, 0.45):
        frac = Fraction(alpha)
        for i, j in ((1, 2), (2, 5), (3, 3)):
            limit = katz.katz_limit_path(i, j, alpha)
            if abs(katz.katz_path(320, i, j, alpha) - limit) > 1e-8:
                failures.append(f"path ({i},{j}) alpha={alpha}: gap above 1e-8")
            chain = [katz.katz_path_exact(n, i, j, frac) for n in sizes]
            # path entries grow strictly toward the limit, so the absolute
            # gaps strictly decrease; exact arithmetic sees it at every step
            if not all(a < b for a, b in zip(chain, chain[1:])):
                failures.append(f"path ({i},{j}) alpha={alpha}: gaps not strictly shrinking")
        for offset in (1, 2, 3):
            limit = katz.katz_limit_cycle(offset, alpha)
            if abs(katz.katz_cycle(320, 1, 1 + offset, alpha) - limit) > 1e-8:
                failures.append(f"cycle offset {offset} alpha={alpha}: gap above 1e-8")
            chain = [katz.katz_cycle_exact(n, 1, 1 + offset, frac) for n in sizes]
            # cycle entries shrink strictly toward the limit from above
            if not all(a > b for a, b in zip(chain, chain[1:])):
                failures.append(f"cycle offset {offset} alpha={alpha}: gaps not strictly shrinking")
    _report(
        "katz entries reach their size limits (1e-8 at n=320, gaps strictly shrink)",
        failures,
    )


def test_scatter_determinism(tmp_path):
    failures = []
    jobs = [
        ["scatter", "--family", "path", "--n", "10", "--out", ""],
        ["scatter", "--family", "cycle", "--n", "15", "--alpha", "0.2,0.3,0.46", "--out", ""],
    ]
    for idx, argv in enumerate(jobs):
        digests = []
        for attempt in ("first", "second"):
            out = tmp_path / f"run{idx}_{attempt}.csv"
            argv[-1] = str(out)
            if cli.main(list(argv)) != 0:
                failures.append(f"job {idx} {attempt} run failed")
                continue
            digests.append(hashlib.sha256(out.read_bytes()).hexdigest())
        if len(set(digests)) != 1:
            failures.append(f"job {idx}: digests differ: {digests}")
    _report("scatter output is byte-identical across repeated runs", failures)
