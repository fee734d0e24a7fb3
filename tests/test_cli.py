import argparse
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from katzlab import cli, graphs, katz, ordering
from katzlab.dpoly import INV_SQRT5
from katzlab.graphs import GraphSpec, graph_distance, resistance
from katzlab.katz import katz_limit_path


def run(argv):
    return cli.main(argv)


def read_lines(path):
    return path.read_text().splitlines()


def test_scatter_header_and_row_count(tmp_path):
    out = tmp_path / "scatter.csv"
    assert run(["scatter", "--family", "path", "--n", "10", "--out", str(out)]) == 0
    lines = read_lines(out)
    assert lines[0] == "alpha,i,j,distance,resistance,katz"
    # three default alphas times 45 unordered pairs
    assert len(lines) == 1 + 3 * 45


def test_scatter_row_order_and_formats(tmp_path):
    out = tmp_path / "scatter.csv"
    run(["scatter", "--family", "path", "--n", "10", "--out", str(out)])
    lines = read_lines(out)
    assert lines[1] == "2.0000000000000001e-01,1,2,1,1.0000000000000000e+00,2.1780381305187713e-01"
    alphas = [float(line.split(",")[0]) for line in lines[1:]]
    assert alphas == sorted(alphas)
    first_block = [tuple(map(int, line.split(",")[1:3])) for line in lines[1:46]]
    assert first_block == sorted(first_block)


def test_scatter_cycle_katz_constant_within_arc_class(tmp_path):
    out = tmp_path / "scatter.csv"
    run(["scatter", "--family", "cycle", "--n", "15", "--alpha", "0.46", "--out", str(out)])
    by_distance = {}
    for line in read_lines(out)[1:]:
        fields = line.split(",")
        by_distance.setdefault(int(fields[3]), set()).add(fields[5])
    # all pairs at one arc length print the identical katz string
    assert all(len(values) == 1 for values in by_distance.values())
    assert len(by_distance) == 7


@pytest.mark.parametrize("n", [3, 4])
def test_scatter_small_cycles_print_one_value_per_arc_class(tmp_path, n):
    out = tmp_path / "scatter.csv"
    run(["scatter", "--family", "cycle", "--n", str(n), "--out", str(out)])
    by_class = {}
    for line in read_lines(out)[1:]:
        fields = line.split(",")
        by_class.setdefault((fields[0], fields[3]), set()).add(fields[5])
    assert all(len(values) == 1 for values in by_class.values())
    assert len(by_class) == 3 * (n // 2)


def reference_scatter_text(family, n, alphas):
    """The per-row route: _real on every cell, one ",".join per row."""
    g = GraphSpec(family, n)
    lines = ["alpha,i,j,distance,resistance,katz"]
    for alpha in sorted(alphas):
        kmat = katz.katz_path_matrix(n, alpha) if g.is_path else katz.katz_cycle_matrix(n, alpha)
        for a, b in ((p.i, p.j) for p in g.pairs()):
            d, r = graph_distance(g, a, b), resistance(g, a, b)
            cells = [cli._real(alpha), str(a), str(b), str(d), cli._real(r), cli._real(kmat[a - 1, b - 1])]
            lines.append(",".join(cells))
    return "".join(line + "\n" for line in lines)


@pytest.mark.parametrize("family, n", [("path", 2), ("path", 10), ("path", 57), ("cycle", 3), ("cycle", 4),
                                       ("cycle", 15), ("cycle", 57)])
@pytest.mark.parametrize("alphas", [list(cli.DEFAULT_SCATTER_ALPHAS), [0.3, 0.1, 0.3]])
def test_scatter_matches_per_row_reference(tmp_path, family, n, alphas):
    out = tmp_path / "scatter.csv"
    argv = ["scatter", "--family", family, "--n", str(n), "--alpha", ",".join(map(repr, alphas)), "--out", str(out)]
    assert run(argv) == 0
    assert out.read_bytes() == reference_scatter_text(family, n, alphas).encode()


@pytest.mark.parametrize("family, n", [("path", 2), ("path", 10), ("path", 57), ("cycle", 3), ("cycle", 10),
                                       ("cycle", 57)])
def test_scatter_katz_cells_are_the_scalar_route(tmp_path, family, n):
    out = tmp_path / "scatter.csv"
    assert run(["scatter", "--family", family, "--n", str(n), "--out", str(out)]) == 0
    route = katz.katz_path if family == "path" else katz.katz_cycle
    rows = [line.split(",") for line in read_lines(out)[1:]]
    assert len(rows) == len(cli.DEFAULT_SCATTER_ALPHAS) * n * (n - 1) // 2
    for alpha, i, j, _, _, cell in rows:
        assert cell == cli._real(route(n, int(i), int(j), float(alpha))), (alpha, i, j)


@pytest.mark.parametrize("family", ["path", "cycle"])
def test_scatter_builds_no_katz_matrix(tmp_path, monkeypatch, family):
    want = reference_scatter_text(family, 12, cli.DEFAULT_SCATTER_ALPHAS).encode()
    monkeypatch.setattr(katz, "_matrices", lambda *args: pytest.fail("matrices called"))
    out = tmp_path / "scatter.csv"
    assert run(["scatter", "--family", family, "--n", "12", "--out", str(out)]) == 0
    assert out.read_bytes() == want


def block_size_for(pairs, remainder):
    """The largest block size b with pairs = m b + remainder for some m >= 2."""
    return max(b for b in range(1, pairs) if (pairs - remainder) % b == 0 and (pairs - remainder) // b >= 2)


@pytest.mark.parametrize("family", ["path", "cycle"])
@pytest.mark.parametrize("n", [10, 16])
@pytest.mark.parametrize("remainder", [-1, 0, 1])
@pytest.mark.parametrize("alphas", [list(cli.DEFAULT_SCATTER_ALPHAS), [0.3, 0.1, 0.3]])
def test_scatter_bytes_across_row_blocks(tmp_path, monkeypatch, family, n, remainder, alphas):
    # P pairs per alpha: a multiple of the block, one short of one, one past one
    block = block_size_for(n * (n - 1) // 2, remainder)
    monkeypatch.setattr(cli, "SCATTER_BLOCK_ROWS", block)
    out = tmp_path / "scatter.csv"
    argv = ["scatter", "--family", family, "--n", str(n), "--alpha", ",".join(map(repr, alphas)), "--out", str(out)]
    assert run(argv) == 0
    assert out.read_bytes() == reference_scatter_text(family, n, alphas).encode()


@pytest.mark.parametrize("family", ["path", "cycle"])
def test_scatter_bytes_across_real_row_blocks(tmp_path, family):
    n = 300
    assert n * (n - 1) // 2 > cli.SCATTER_BLOCK_ROWS
    out = tmp_path / "scatter.csv"
    assert run(["scatter", "--family", family, "--n", str(n), "--out", str(out)]) == 0
    assert out.read_bytes() == reference_scatter_text(family, n, cli.DEFAULT_SCATTER_ALPHAS).encode()


@pytest.mark.parametrize("family", ["path", "cycle"])
def test_scatter_rejects_n_above_its_row_cap(tmp_path, capsys, family):
    # the cap admits every n that the earlier matrix-size cap admitted
    assert cli.SCATTER_MAX_N == katz.MATRIX_MAX_N
    cli._require_scatter_size(GraphSpec(family, cli.SCATTER_MAX_N))
    out = tmp_path / "scatter.csv"
    rc = run(["scatter", "--family", family, "--n", str(cli.SCATTER_MAX_N + 1), "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "SCATTER_MAX_ROWS" in err
    assert "Traceback" not in err
    assert not out.exists()


# The first n at which the Katz denominator (d_n on a path, D_n on a cycle)
# drops below the smallest normal double, per family and alpha.
FIRST_SUBNORMAL_DENOMINATOR = [
    ("path", 0.46, 1956), ("cycle", 0.46, 1955),
    ("path", 0.499, 1125), ("cycle", 0.499, 1122),
    ("path", 0.45, 2140), ("cycle", 0.45, 2138),
]


@pytest.mark.parametrize("family, alpha, n", FIRST_SUBNORMAL_DENOMINATOR)
def test_scatter_refuses_an_alpha_whose_denominator_is_subnormal(tmp_path, capsys, family, alpha, n):
    out = tmp_path / "scatter.csv"
    argv = ["scatter", "--family", family, "--n", str(n), "--alpha", f"0.3,{alpha!r}", "--out", str(out)]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"{family}({n}) at alpha = {alpha!r}" in err and "item 1" in err
    assert not out.exists()
    # one size smaller the denominator is normal, and the alpha is accepted
    katz.require_normal_denominator(GraphSpec(family, n - 1), [alpha])


@pytest.mark.parametrize("family", ["path", "cycle"])
def test_scatter_refuses_no_size_at_alpha_point_three(family):
    # d_n and D_n fall as n grows, so the largest admitted n is the last to pass
    katz.require_normal_denominator(GraphSpec(family, cli.SCATTER_MAX_N), [0.3])


def drained_scatter_peak(g, alpha):
    """The tracemalloc peak, in bytes, of making every scatter block of g at one alpha."""
    tracemalloc.start()
    try:
        for _ in cli._scatter_blocks(g, [alpha]):
            pass
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("family", ["path", "cycle"])
def test_scatter_memory_does_not_grow_with_the_pair_count(family):
    # four times the pairs: an array of all P pairs would about quadruple the peak
    small, large = (drained_scatter_peak(GraphSpec(family, n), 0.3) for n in (600, 1200))
    assert large < 2 * small
    assert large < 6 * 2**20


SPECIAL_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, math.inf, -math.inf, math.nan, 1.0, 0.3]
FLOAT_ARRAYS = hnp.arrays(
    np.float64,
    st.integers(0, 40),
    elements=st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats(allow_nan=True, allow_subnormal=True)),
)


@given(FLOAT_ARRAYS)
def test_real_cells_are_real_per_value(values):
    cells, inverse = cli._RealCells().add(values)
    assert [cells[k] for k in inverse.tolist()] == [cli._real(x) for x in values.tolist()]


def test_real_cells_keep_signed_zeros_and_nan_payloads_apart():
    payload_nan = np.array([0x7FF8000000000001], dtype=np.int64).view(np.float64)[0]
    values = np.array([0.0, -0.0, math.nan, payload_nan, -math.nan, 0.0])
    cells, inverse = cli._RealCells().add(values)
    assert [cells[k] for k in inverse.tolist()] == [cli._real(x) for x in values.tolist()]
    assert len(cells) == 5
    assert [cells[k] for k in inverse[:2].tolist()] == ["0.0000000000000000e+00", "-0.0000000000000000e+00"]


@given(FLOAT_ARRAYS, st.integers(0, 40))
def test_real_cells_format_each_pattern_once_across_blocks(values, cut):
    seen, cells, numbers = cli._RealCells(), [], []
    for block in (values[:cut], values[cut:]):
        new, inverse = seen.add(block)
        cells += new
        numbers += inverse.tolist()
    assert [cells[k] for k in numbers] == [cli._real(x) for x in values.tolist()]
    assert len(cells) == len(set(values.view(np.int64).tolist()))


WRITING_COMMANDS = {
    "scatter": ["scatter", "--family", "cycle", "--n", "8"],
    "cutoff": ["cutoff", "--j", "1", "--n-lo", "6", "--n-hi", "7"],
    "converge": ["converge", "--family", "path", "--i", "1", "--j", "3", "--alpha", "0.3", "--n-list", "10,20"],
}


@pytest.mark.parametrize("command", sorted(WRITING_COMMANDS))
@pytest.mark.parametrize("target", ["missing-directory", "directory"])
def test_unwritable_output_exits_2(tmp_path, capsys, command, target):
    out = tmp_path / "missing" / "x.csv" if target == "missing-directory" else tmp_path
    assert run(WRITING_COMMANDS[command] + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "Traceback" not in err


def test_scatter_rejects_inadmissible_alpha(tmp_path, capsys):
    out = tmp_path / "scatter.csv"
    rc = run(["scatter", "--family", "cycle", "--n", "8", "--alpha", "0.5", "--out", str(out)])
    assert rc == 2
    assert "not admissible" in capsys.readouterr().err
    assert not out.exists()


def test_verify_exits_2_when_power_iteration_does_not_converge(capsys, monkeypatch):
    monkeypatch.setattr(graphs, "_POWER_ITERATION_CAP", 3)
    assert graphs.PowerIterationError in cli.NUMERIC_RANGE_ERRORS
    assert run(["verify", "--level", "quick"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: power iteration on path(3) did not reach residual 1e-13 in 3 steps")
    assert "Traceback" not in err


def test_scatter_rejects_empty_alpha_list(tmp_path):
    out = tmp_path / "scatter.csv"
    # argparse surfaces bad option values as a usage error
    with pytest.raises(SystemExit) as err:
        run(["scatter", "--family", "path", "--n", "6", "--alpha", ",", "--out", str(out)])
    assert err.value.code == 2


def test_cutoff_table_csv(tmp_path, capsys):
    out = tmp_path / "cutoff.csv"
    assert run(["cutoff", "--j", "1", "--n-lo", "6", "--n-hi", "20", "--out", str(out)]) == 0
    lines = read_lines(out)
    assert lines[0] == "n,j,root,root_minus_inv_sqrt5,iterations,residual,status"
    assert len(lines) == 1 + 15
    roots = []
    for line in lines[1:]:
        fields = line.split(",")
        assert fields[6] == "ok"
        root = float(fields[2])
        assert INV_SQRT5 < root < 0.5
        assert float(fields[3]) == pytest.approx(root - INV_SQRT5, abs=1e-17)
        roots.append(root)
    assert all(a > b for a, b in zip(roots, roots[1:]))
    assert "roots monotone decreasing: yes" in capsys.readouterr().out


@pytest.mark.parametrize(
    "extra, status",
    [
        # the bracket's upper end loses its sign at large n
        (["--n-lo", "600", "--n-hi", "602"], "0,nan,bracket_failure"),
    ],
)
def test_cutoff_failure_rows(tmp_path, capsys, extra, status):
    out = tmp_path / "cutoff.csv"
    assert run(["cutoff", "--j", "1", *extra, "--out", str(out)]) == 0
    n_lo = int(extra[1])
    assert out.read_bytes() == (
        "n,j,root,root_minus_inv_sqrt5,iterations,residual,status\n"
        + "".join(f"{n},1,nan,nan,{status}\n" for n in range(n_lo, n_lo + 3))
    ).encode()
    assert f"n={n_lo}..{n_lo + 2}: 0/3 converged; roots monotone decreasing: no" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv",
    [
        ["cutoff", "--j", "0", "--n-lo", "6", "--n-hi", "8", "--out", "x.csv"],
        ["cutoff", "--j", "1", "--n-lo", "9", "--n-hi", "8", "--out", "x.csv"],
        ["cutoff", "--j", "1", "--n-lo", "5", "--n-hi", "8", "--out", "x.csv"],
    ],
)
def test_cutoff_usage_errors(tmp_path, argv, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run(argv) == 2


def test_cutoff_has_no_tolerance_option(tmp_path, monkeypatch):
    # the bisection stops at one fixed width, so argparse rejects --tol
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as err:
        run(["cutoff", "--j", "1", "--n-lo", "6", "--n-hi", "8", "--tol", "1e-12", "--out", "x.csv"])
    assert err.value.code == 2
    assert not (tmp_path / "x.csv").exists()


def test_converge_path_csv(tmp_path):
    out = tmp_path / "conv.csv"
    rc = run(
        [
            "converge", "--family", "path", "--i", "1", "--j", "3",
            "--alpha", "0.3", "--n-list", "10,20,40,80,160,320", "--out", str(out),
        ]
    )
    assert rc == 0
    lines = read_lines(out)
    assert lines[0] == "n,katz_exact,limit_value,abs_gap"
    assert len(lines) == 1 + 6 + 1
    limit = katz_limit_path(1, 3, 0.3)
    final = lines[-1].split(",")
    assert final[0] == "inf"
    assert float(final[1]) == limit
    assert float(final[3]) == 0.0
    gap_320 = float(lines[-2].split(",")[3])
    assert gap_320 <= 1e-8


def test_converge_cycle_csv(tmp_path):
    out = tmp_path / "conv.csv"
    rc = run(
        [
            "converge", "--family", "cycle", "--offset", "2",
            "--alpha", "0.3", "--out", str(out),
        ]
    )
    assert rc == 0
    lines = read_lines(out)
    assert len(lines) == 1 + 6 + 1
    # the gap column is the distance to the limit and ends at zero
    gaps = [float(line.split(",")[3]) for line in lines[1:-1]]
    assert gaps[0] > gaps[-1]


@pytest.mark.parametrize(
    "argv",
    [
        # path form takes --i/--j, cycle form takes --offset
        ["converge", "--family", "path", "--offset", "2", "--alpha", "0.3", "--out", "x.csv"],
        ["converge", "--family", "cycle", "--i", "1", "--j", "2", "--alpha", "0.3", "--out", "x.csv"],
        ["converge", "--family", "path", "--i", "3", "--j", "2", "--alpha", "0.3", "--out", "x.csv"],
        ["converge", "--family", "path", "--i", "1", "--j", "12", "--alpha", "0.3",
         "--n-list", "10,20", "--out", "x.csv"],
        ["converge", "--family", "path", "--i", "1", "--j", "2", "--alpha", "0.3",
         "--n-list", "20,10", "--out", "x.csv"],
        ["converge", "--family", "cycle", "--offset", "0", "--alpha", "0.3", "--out", "x.csv"],
        ["converge", "--family", "path", "--i", "1", "--j", "2", "--alpha", "0.6", "--out", "x.csv"],
    ],
)
def test_converge_usage_errors(tmp_path, argv, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run(argv) == 2


@pytest.mark.parametrize("n_list", ["10,10", "10,20,20,40", "20,10"])
def test_converge_requires_a_strictly_increasing_n_list(n_list, tmp_path, monkeypatch, capsys):
    # a repeated size would write its row twice
    monkeypatch.chdir(tmp_path)
    argv = ["converge", "--family", "path", "--i", "1", "--j", "2", "--alpha", "0.3",
            "--n-list", n_list, "--out", "x.csv"]
    assert run(argv) == 2
    assert capsys.readouterr().err == f"error: n-list must be strictly increasing, got {n_list}\n"
    assert not (tmp_path / "x.csv").exists()


def test_verify_quick_passes(capsys):
    assert run(["verify", "--level", "quick"]) == 0
    out = capsys.readouterr().out
    lines = [line for line in out.splitlines() if line.startswith(("PASS", "FAIL"))]
    assert len(lines) == 27
    assert all(line.startswith("PASS") for line in lines)
    assert "27/27 suites passed" in out


def test_verify_rejects_unknown_level():
    with pytest.raises(SystemExit):
        run(["verify", "--level", "exhaustive"])


def test_missing_subcommand_exits_with_usage_error():
    with pytest.raises(SystemExit):
        run([])


def test_scatter_requires_known_family():
    with pytest.raises(SystemExit):
        run(["scatter", "--family", "star", "--n", "6", "--out", "x.csv"])


def test_numeric_range_error_exits_with_usage_error(tmp_path, monkeypatch, capsys):
    # d_1600 at 0.499 is below the smallest normal double, so the denominator
    # gate refuses it; that is an input out of range (exit 2), not a
    # verification failure (exit 1)
    monkeypatch.chdir(tmp_path)
    argv = ["converge", "--family", "path", "--i", "1500", "--j", "1501", "--alpha", "0.499",
            "--n-list", "1600", "--out", "x.csv"]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err
    assert not (tmp_path / "x.csv").exists()


def test_converge_rejects_alpha_outside_the_limit_interval(tmp_path, monkeypatch, capsys):
    # 0.5 is admissible for paths of 3 and 4 vertices, but the limit needs alpha < 1/2
    monkeypatch.chdir(tmp_path)
    argv = ["converge", "--family", "path", "--i", "1", "--j", "2", "--alpha", "0.5",
            "--n-list", "3,4", "--out", "x.csv"]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("error", cli.NUMERIC_RANGE_ERRORS)
def test_every_numeric_range_error_exits_2(error, monkeypatch, capsys):
    def fail(args):
        raise error("out of range")

    monkeypatch.setattr(cli, "cmd_converge", fail)
    assert run(["converge", "--family", "path", "--i", "1", "--j", "2", "--alpha", "0.3", "--out", "x.csv"]) == 2
    assert capsys.readouterr().err == "error: out of range\n"


def converge_argv(out, family="path"):
    where = ["--i", "2", "--j", "5"] if family == "path" else ["--offset", "2"]
    return ["converge", "--family", family, *where, "--alpha", "0.3", "--out", str(out)]


def test_main_builds_its_parser_once(tmp_path, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    argv = converge_argv(tmp_path / "c.csv")
    assert run(argv) == 0
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    for _ in range(3):
        assert run(argv) == 0
    assert built == []


@pytest.mark.parametrize("family", ["path", "cycle"])
def test_main_calls_are_independent(tmp_path, capsys, family):
    out = tmp_path / "scatter.csv"
    default = ["scatter", "--family", family, "--n", "9", "--out", str(out)]
    want = reference_scatter_text(family, 9, cli.DEFAULT_SCATTER_ALPHAS).encode()
    assert run(default[:-2] + ["--alpha", "0.1,0.2", "--out", str(out)]) == 0
    assert run(default) == 0
    assert out.read_bytes() == want
    for argv, code in ((default[:-2], 2), (["--help"], 0), (["scatter", "--help"], 0)):
        out.unlink()
        with pytest.raises(SystemExit) as err:
            run(argv)
        assert err.value.code == code
        assert run(default) == 0
        assert out.read_bytes() == want


@pytest.mark.parametrize("family", ["path", "cycle"])
def test_converge_checks_each_size_once(tmp_path, monkeypatch, family):
    calls = []
    check = GraphSpec._check_alpha

    def counted(g, value):
        calls.append(g.n)
        return check(g, value)

    monkeypatch.setattr(GraphSpec, "_check_alpha", counted)
    out = tmp_path / "c.csv"
    assert run(converge_argv(out, family)) == 0
    assert calls == list(cli.DEFAULT_CONVERGE_SIZES)
    route = katz.katz_path if family == "path" else katz.katz_cycle
    i, j = (2, 5) if family == "path" else (1, 3)
    cells = [line.split(",")[1] for line in read_lines(out)[1:-1]]
    assert cells == [cli._real(route(n, i, j, 0.3)) for n in cli.DEFAULT_CONVERGE_SIZES]


def reference_converge_text(family, alpha, sizes):
    """converge's CSV at labels (1, 2) or offset 1, from the public entries and limits."""
    route = katz.katz_path if family == "path" else katz.katz_cycle
    limit = katz_limit_path(1, 2, alpha) if family == "path" else katz.katz_limit_cycle(1, alpha)
    values = [route(n, 1, 2, alpha) for n in sizes]
    rows = [[str(n), cli._real(v), cli._real(limit), cli._real(abs(v - limit))] for n, v in zip(sizes, values)]
    rows.append(["inf", cli._real(limit), cli._real(limit), cli._real(0.0)])
    return "n,katz_exact,limit_value,abs_gap\n" + "".join(",".join(row) + "\n" for row in rows)


@pytest.mark.parametrize("family, alpha, n", FIRST_SUBNORMAL_DENOMINATOR)
def test_converge_refuses_a_largest_size_past_the_float_range(tmp_path, capsys, family, alpha, n):
    out = tmp_path / "c.csv"
    where = ["--i", "1", "--j", "2"] if family == "path" else ["--offset", "1"]

    def converge(sizes):
        argv = ["converge", "--family", family, *where, "--alpha", repr(alpha), "--n-list", ",".join(map(str, sizes))]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            return run(argv + ["--out", str(out)])

    assert converge([n - 1, n]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"{family}({n}) at alpha = {alpha!r}" in err and "item 1" in err
    assert not out.exists()
    # one size smaller every denominator is normal, and the table is written
    assert converge([n - 2, n - 1]) == 0
    assert out.read_text() == reference_converge_text(family, alpha, [n - 2, n - 1])


def test_scatter_and_metric_rankings_scan_no_labels_of_their_own(tmp_path, monkeypatch):
    scans = []
    label_spans = graphs._label_spans

    def counted(g, i, j):
        scans.append(g)
        return label_spans(g, i, j)

    monkeypatch.setattr(graphs, "_label_spans", counted)
    for family in ("path", "cycle"):
        g = GraphSpec(family, 12)
        assert run(["scatter", "--family", family, "--n", "12", "--out", str(tmp_path / "s.csv")]) == 0
        for metric in ("distance", "resistance"):
            ordering.rank_pairs(g, metric)
            ordering.pair_scores(g, metric)
    # a cycle converge reads each size's arc from the span kernel
    assert run(converge_argv(tmp_path / "c.csv", "cycle")) == 0
    assert scans == []
    graph_distance(g, 1, np.arange(2, 13))
    assert scans == [g]
