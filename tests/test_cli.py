import csv
import json
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import snum
import snum.cli as cli_mod
import snum.john as john_mod
import snum.selftest as selftest_mod
from snum.cli import RunConfig, build_parser, main, run
from snum.hilbert import HilbertOrdering, hilbert_order
from snum.john import (
    ConstructionError,
    john_bound_constructive,
    segment_domain,
    uniform_john_constant,
)
from snum.snumbers import DegenerateBasisError


def test_usage_error_on_bad_flags(capsys):
    with pytest.raises(SystemExit) as err:
        main(["volterra"])  # --n is required
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["volterra", "--n", "1", "--mode", "exact"])  # no such flag
    assert err.value.code == 2
    assert "--mode" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["volterra", "--n", "abc"],
    ["volterra", "--n", "1.."],
    ["volterra", "--n", "1..2..3"],
    ["volterra", "--n", "0,2"],
    ["volterra", "--n", "3..1"],
    ["cube", "--m", "x"],
])
def test_bad_n_list_names_the_flag(argv, tmp_path, capsys):
    out = tmp_path / "r.json"
    with pytest.raises(SystemExit) as err:
        main(argv + ["--out", str(out)])
    assert err.value.code == 2
    message = capsys.readouterr().err
    assert message.endswith(f"snum {argv[0]}: error: argument {argv[1]}: bad n list {argv[2]!r}\n")
    assert "Traceback" not in message and "int()" not in message
    assert not out.exists()


def test_usage_error_on_incompatible_grid():
    assert main(["volterra", "--n", "2", "--grid", "3", "--kinds", "i"]) == 2


@pytest.mark.parametrize("n,grid,bad_n", [("3", "2", 3), ("1", "1", 1), ("1..3", "3", 3)])
def test_bernstein_needs_more_cells_than_n(n, grid, bad_n, tmp_path, monkeypatch, capsys):
    # G cells carry only G - 1 mean-zero dimensions: a usage error before any row
    rows = []
    monkeypatch.setattr(cli_mod, "bernstein_upper_1d", lambda *a, **k: rows.append(a))
    out = tmp_path / "r.json"
    assert main(["volterra", "--kinds", "b", "--n", n, "--grid", grid, "--out", str(out)]) == 2
    message = capsys.readouterr().err
    assert f"grid {grid} holds only {int(grid) - 1} mean-zero dimensions" in message
    assert f"n = {bad_n}" in message
    assert "Traceback" not in message and "linearly independent" not in message
    assert not rows and not out.exists()


def test_bernstein_at_one_dimension_below_the_grid(tmp_path):
    out = tmp_path / "r.json"
    assert main(["volterra", "--kinds", "b", "--n", "2", "--grid", "3", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["results"][0]["n"] == 2


@pytest.mark.parametrize("argv,flag", [
    (["volterra", "--n", "1", "--grid", "0"], "--grid"),
    (["volterra", "--n", "1", "--grid", "-4"], "--grid"),
    (["volterra", "--n", "1", "--subspaces", "0"], "--subspaces"),
    (["cube", "--m", "1", "--grid", "0"], "--grid"),
    (["cube", "--m", "1", "--dim", "0"], "--dim"),
    (["cube", "--m", "1", "--curve-order", "-1"], "--curve-order"),
    (["hilbert", "--dim", "0", "--order", "2"], "--dim"),
    (["hilbert", "--dim", "2", "--order", "0"], "--order"),
    (["john", "--dim", "2", "--order", "2", "--pairs", "0"], "--pairs"),
    (["john", "--dim", "2", "--order", "2", "--samples", "0"], "--samples"),
    (["john", "--dim", "2", "--order", "2", "--samples", "ten"], "--samples"),
])
def test_nonpositive_counts_rejected_up_front(argv, flag, capsys):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    message = capsys.readouterr().err
    assert f"argument {flag}: must be a positive integer" in message
    assert "Traceback" not in message


@pytest.mark.parametrize("argv", [
    ["volterra", "--n", "1", "--kinds", "i"],
    ["cube", "--m", "1"],
    ["john", "--dim", "2", "--order", "2"],
])
def test_negative_seed_names_the_flag(argv, capsys):
    with pytest.raises(SystemExit) as err:
        main([*argv, "--seed", "-1"])
    assert err.value.code == 2
    message = capsys.readouterr().err
    assert "argument --seed: must be a non-negative integer, got '-1'" in message
    assert "Traceback" not in message


@pytest.mark.parametrize("argv", [["--m", "2", "--curve-order", "30"],
                                  ["--dim", "3", "--m", "1", "--curve-order", "8"]])
def test_curve_order_capacity_checked_before_any_estimator(argv, monkeypatch, capsys):
    def never(*args, **kwargs):
        raise AssertionError("an estimator ran before the curve order was checked")

    monkeypatch.setattr(cli_mod, "hat_functions", never)
    monkeypatch.setattr(cli_mod, "isomorphism_lower_ddim", never)
    with pytest.raises(SystemExit) as err:
        main(["cube", *argv])
    assert err.value.code == 2
    message = capsys.readouterr().err
    assert "argument --curve-order: 2^(dim*curve_order)" in message
    assert "Traceback" not in message


@pytest.mark.parametrize("kinds", ["b", "i"])
def test_cube_needs_dimension_two(kinds, monkeypatch, capsys):
    def never(*args, **kwargs):
        raise AssertionError("an estimator ran before --dim was checked")

    monkeypatch.setattr(cli_mod, "hat_functions", never)
    monkeypatch.setattr(cli_mod, "isomorphism_lower_ddim", never)
    with pytest.raises(SystemExit) as err:
        main(["cube", "--dim", "1", "--m", "2", "--kinds", kinds])
    assert err.value.code == 2
    message = capsys.readouterr().err
    assert "argument --dim: the cube construction needs dim >= 2" in message
    assert "Traceback" not in message


@pytest.mark.parametrize("value", ["2", "2,1,3", "1/0,1", "p,q"])
def test_space_needs_two_exponents(value, capsys):
    with pytest.raises(SystemExit) as err:
        main(["cube", "--m", "1", "--space", value])
    assert err.value.code == 2
    message = capsys.readouterr().err
    assert "argument --space: must be two exponents p,q" in message
    assert "Traceback" not in message


@pytest.mark.parametrize("value", ["inf", "nan", "-inf", "0", "-0.5", "tiny"])
def test_eps_must_be_finite_and_positive(value, tmp_path, capsys):
    out = tmp_path / "r.json"
    with pytest.raises(SystemExit) as err:
        main(["volterra", "--n", "2", "--kinds", "c", f"--eps={value}", "--out", str(out)])
    assert err.value.code == 2
    message = capsys.readouterr().err
    assert "argument --eps: must be a finite number > 0" in message
    assert "Traceback" not in message
    assert not out.exists()


@pytest.mark.parametrize("command", [["volterra", "--n", "2", "--kinds", "b"],
                                     ["cube", "--m", "2", "--kinds", "b"]])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-0.01", "zero"])
def test_zigzag_eps_must_be_finite_and_nonnegative(command, value, tmp_path, capsys):
    out = tmp_path / "r.json"
    with pytest.raises(SystemExit) as err:
        main([*command, f"--zigzag-eps={value}", "--out", str(out)])
    assert err.value.code == 2
    message = capsys.readouterr().err
    assert "argument --zigzag-eps: must be a finite number >= 0" in message
    assert "Traceback" not in message
    assert not out.exists()


def test_zigzag_eps_zero_is_accepted(tmp_path):
    out = tmp_path / "r.json"
    assert main(["volterra", "--n", "1", "--kinds", "b", "--subspaces", "1",
                 "--zigzag-eps", "0", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["config"]["zigzag_eps"] == 0.0


@pytest.mark.parametrize("command", [["volterra", "--n", "1"], ["cube", "--m", "1"]])
def test_unknown_kind_named(command, capsys):
    with pytest.raises(SystemExit) as err:
        main(command + ["--kinds", "i,x"])
    assert err.value.code == 2
    message = capsys.readouterr().err
    allowed = "b, i" if command[0] == "cube" else "a, b, c, d, i"
    assert "unknown kind 'x'" in message and f"choose from {allowed}\n" in message


@pytest.mark.parametrize("kinds", ["a", "i,c"])
def test_cube_rejects_interval_kinds(kinds, capsys):
    with pytest.raises(SystemExit) as err:
        main(["cube", "--m", "1", "--kinds", kinds])
    assert err.value.code == 2
    assert "choose from b, i" in capsys.readouterr().err


def test_cube_emits_exactly_the_requested_kinds(tmp_path):
    base = ["cube", "--dim", "2", "--m", "1,2", "--curve-order", "2", "--grid", "16"]
    rows = {}
    for kinds in ("b", "i", "i,b"):
        out = tmp_path / f"{kinds}.json"
        assert main(base + ["--kinds", kinds, "--out", str(out)]) == 0
        rows[kinds] = json.loads(out.read_text())["results"]
        for row in rows[kinds]:
            del row["witness_path"]
    assert {r["kind"] for r in rows["b"]} == {"bernstein"}
    assert {r["kind"] for r in rows["i"]} == {"isomorphism"}
    # the bernstein search draws from the same rng whatever else is asked for
    assert rows["i,b"] == [rows["i"][0], rows["b"][0], rows["i"][1], rows["b"][1]]


def test_hilbert_check_ok():
    assert main(["hilbert", "--dim", "2", "--order", "4", "--check"]) == 0


def test_hilbert_check_failure_names_the_reentered_cube(monkeypatch, capsys):
    # serpentine columns at order 2 are face-adjacent, but they leave the
    # level-1 quadrant (0, 0) and come back into it
    snake = [(x, y if x % 2 == 0 else 3 - y) for x in range(4) for y in range(4)]
    monkeypatch.setattr(cli_mod, "hilbert_order",
                        lambda dim, order: HilbertOrdering(dim, order, snake))
    assert main(["hilbert", "--dim", "2", "--order", "2", "--check"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "check_prefix_nesting: FAIL at level 1 cube (0, 0)\n"
    assert "ok" not in captured.out


def test_hilbert_table_emission(tmp_path):
    out = tmp_path / "table.csv"
    assert main([
        "hilbert", "--dim", "2", "--order", "1",
        "--format", "csv", "--out", str(out),
    ]) == 0
    rows = list(csv.reader(out.open()))
    assert rows[0] == ["index", "z0", "z1"]
    assert [r[1:] for r in rows[1:]] == [["0", "0"], ["0", "1"], ["1", "1"], ["1", "0"]]


@pytest.mark.parametrize("dim,order", [(1, 1), (1, 3), (2, 3), (3, 2), (4, 2), (3, 5)])
def test_hilbert_table_bytes_match_library_writers(tmp_path, capsys, dim, order):
    # the array formatter writes exactly what json.dumps and csv.writer write
    ordering = hilbert_order(dim, order)
    cells = [{"index": i + 1, "coords": row} for i, row in enumerate(ordering.coords.tolist())]
    expected_json = json.dumps(
        {"dim": dim, "order": order, "cells": cells}, indent=2, sort_keys=True
    )
    rows = [[str(c["index"])] + [str(z) for z in c["coords"]] for c in cells]
    reference_csv = tmp_path / "reference.csv"
    with open(reference_csv, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["index"] + [f"z{a}" for a in range(dim)])
        writer.writerows(rows)
    base = ["hilbert", "--dim", str(dim), "--order", str(order)]

    assert main(base + ["--out", str(tmp_path / "t.json")]) == 0
    assert (tmp_path / "t.json").read_bytes() == expected_json.encode()
    assert main(base + ["--format", "csv", "--out", str(tmp_path / "t.csv")]) == 0
    assert (tmp_path / "t.csv").read_bytes() == reference_csv.read_bytes()
    capsys.readouterr()
    assert main(base) == 0
    assert capsys.readouterr().out == expected_json + "\n"
    assert main(base + ["--format", "csv"]) == 0
    assert capsys.readouterr().out == "".join(",".join(r) + "\n" for r in rows)


@pytest.mark.parametrize("dim,order,block", [(2, 5, 1000), (3, 2, 7), (1, 3, 1)])
def test_hilbert_table_blocks_join_seamlessly(tmp_path, capsys, monkeypatch, dim, order, block):
    # a partial last block and one-cell blocks write the bytes of one block
    base = ["hilbert", "--dim", str(dim), "--order", str(order)]
    outputs = {}
    for size in (cli_mod.TABLE_BLOCK, block):
        monkeypatch.setattr(cli_mod, "TABLE_BLOCK", size)
        for fmt in ("json", "csv"):
            path = tmp_path / f"{size}.{fmt}"
            assert main(base + ["--format", fmt, "--out", str(path)]) == 0
            assert main(base + ["--format", fmt]) == 0
            outputs[size, fmt] = path.read_bytes(), capsys.readouterr().out
    for fmt in ("json", "csv"):
        assert outputs[block, fmt] == outputs[cli_mod.TABLE_BLOCK, fmt]


def _child_env() -> dict:
    """The environment of a fresh interpreter that imports this snum."""
    src = str(Path(snum.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def test_hilbert_table_on_real_stdout(tmp_path):
    # the table's bytes go to sys.stdout.buffer, which capsys does not cover
    ordering = hilbert_order(2, 3)
    cells = [{"index": i + 1, "coords": row} for i, row in enumerate(ordering.coords.tolist())]
    expected_json = json.dumps({"dim": 2, "order": 3, "cells": cells}, indent=2, sort_keys=True)
    expected_csv = "".join(f"{c['index']},{c['coords'][0]},{c['coords'][1]}\n" for c in cells)
    base = [sys.executable, "-m", "snum.cli", "hilbert", "--dim", "2", "--order", "3"]
    for extra, expected in (([], expected_json + "\n"), (["--format", "csv"], expected_csv),
                            (["--check"], "check_face_adjacency: ok\ncheck_prefix_nesting: ok\n")):
        proc = subprocess.run(base + extra, cwd=tmp_path, env=_child_env(),
                              capture_output=True, check=True)
        assert proc.stdout == expected.encode()
        assert proc.stderr == b""


def test_john_command(tmp_path):
    out = tmp_path / "john.csv"
    assert main([
        "john", "--dim", "2", "--order", "2", "--pairs", "8",
        "--samples", "500", "--out", str(out),
    ]) == 0
    rows = list(csv.DictReader(out.open()))
    assert len(rows) == 8
    assert {r["verdict"] for r in rows} == {"pass"}
    assert len({r["constant"] for r in rows}) == 1


def test_john_budget_of_one_point_fails_every_multi_block_domain(tmp_path):
    # a domain of more than one block has at least two walk segments to
    # measure; one block has none, only its first leg's closed-form bound
    out = tmp_path / "john.csv"
    assert main(["john", "--dim", "2", "--order", "2", "--exhaustive",
                 "--samples", "1", "--out", str(out)]) == 1
    rows = list(csv.DictReader(out.open()))
    assert len(rows) == 16 * 17 // 2
    ordering = hilbert_order(2, 2)
    for row in rows:
        cert = john_bound_constructive(segment_domain(ordering, int(row["i"]), int(row["j"])))
        single = len(cert.block_levels) == 1
        assert row["verdict"] == ("pass" if single else "fail"), row
        assert float(row["worst_ratio"]) == pytest.approx(math.sqrt(2), rel=1e-11)


def _third_domain(calls, i, j):
    """Record a group's pairs; the row of the run's third domain in it, or None."""
    calls.extend(zip(i.tolist(), j.tolist()))
    row = 2 - (len(calls) - len(i))
    return row if 0 <= row < len(i) else None


def test_john_invalid_certificate_is_a_failed_row(tmp_path, monkeypatch, capsys):
    # the third of five certificates leaves its domain: that row fails, the
    # others are still measured, and the run exits 1 rather than 2
    build = john_mod._block_table
    calls = []

    def third_invalid(ordering, i, j):
        row = _third_domain(calls, i, j)
        if row is not None:  # the blocks of one cube outside the domain
            i, j = i.copy(), j.copy()
            i[row] = j[row] = 1 if i[row] > 1 else j[row] + 1
        return build(ordering, i, j)

    monkeypatch.setattr(john_mod, "_block_table", third_invalid)
    out = tmp_path / "john.csv"
    assert main(["john", "--dim", "2", "--order", "2", "--pairs", "5",
                 "--samples", "200", "--out", str(out)]) == 1
    rows = list(csv.DictReader(out.open()))
    assert [(int(r["i"]), int(r["j"])) for r in rows] == calls
    assert [r["verdict"] for r in rows] == ["pass", "pass", "fail", "pass", "pass"]
    assert rows[2]["worst_ratio"] == "inf"
    i, j = calls[2]
    assert f"domain {i}..{j}: polyline exits the domain" in capsys.readouterr().err


def test_john_construction_error_is_a_failed_row(tmp_path, monkeypatch, capsys):
    # the third of five domains has no certificate: its row carries the
    # uniform constant, no profile bound and an infinite ratio, and fails
    build = john_mod._block_table
    calls = []

    def third_unbuildable(ordering, i, j):
        row = _third_domain(calls, i, j)
        block_start, levels, coords, center = build(ordering, i, j)
        if row is not None:  # a finer block, then its center block again
            c = block_start[row] + center[row]
            levels = np.insert(levels, c + 1, levels[c] + [1, 0])
            coords = np.insert(coords, c + 1, coords[c] * [[2], [1]], axis=0)
            block_start = block_start + 2 * (np.arange(len(block_start)) > row)
        return block_start, levels, coords, center

    monkeypatch.setattr(john_mod, "_block_table", third_unbuildable)
    out = tmp_path / "john.csv"
    assert main(["john", "--dim", "2", "--order", "2", "--pairs", "5",
                 "--samples", "200", "--out", str(out)]) == 1
    rows = list(csv.DictReader(out.open()))
    assert [(int(r["i"]), int(r["j"])) for r in rows] == calls
    assert [r["verdict"] for r in rows] == ["pass", "pass", "fail", "pass", "pass"]
    assert {r["constant"] for r in rows} == {f"{uniform_john_constant(2):.12g}"}
    assert (rows[2]["profile_bound"], rows[2]["worst_ratio"]) == ("nan", "inf")
    i, j = calls[2]
    assert f"domain {i}..{j}: largest filled cubes are not consecutive" in capsys.readouterr().err


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_john_domains_pairs_form_one_proof_group(seed, tmp_path, monkeypatch):
    # 300 domains of order 5 hold about 90,000 first-level (face run, piece)
    # pairs, well within one chunk of the distance table
    prove = john_mod._verify_group
    groups = []

    def counted(ordering, i, j, *args, **kwargs):
        groups.append(len(i))
        return prove(ordering, i, j, *args, **kwargs)

    monkeypatch.setattr(john_mod, "_verify_group", counted)
    assert main(["john", "--dim", "2", "--order", "5", "--pairs", "300", "--samples", "10000",
                 "--seed", str(seed), "--out", str(tmp_path / "john.csv")]) == 0
    assert groups == [300]


@pytest.mark.parametrize("argv", [
    ["john", "--dim", "2", "--order", "12"],
    ["john", "--dim", "23", "--order", "1", "--exhaustive"],
    ["hilbert", "--dim", "3", "--order", "8", "--check"],
])
def test_ordering_size_is_a_usage_error_of_the_command(argv, tmp_path, monkeypatch, capsys):
    def never(*args, **kwargs):
        raise AssertionError("an ordering was built before its size was checked")

    monkeypatch.setattr(cli_mod, "hilbert_order", never)
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as err:
        main([*argv, "--out", str(out)])
    assert err.value.code == 2
    message = capsys.readouterr().err
    assert f"snum {argv[0]}: error: argument --order: 2^(dim*order) = 2^" in message
    assert "cubes exceed 4194304" in message and "Traceback" not in message
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["john", "--dim", "2", "--order", "2", "--pairs", "4"],
    ["hilbert", "--dim", "2", "--order", "2"],
    ["volterra", "--n", "1", "--kinds", "i", "--subspaces", "2"],
])
def test_unwritable_out_path_is_a_usage_error(argv, tmp_path, capsys):
    plain = tmp_path / "plain"
    plain.write_text("")
    with pytest.raises(SystemExit) as err:
        main([*argv, "--out", str(plain / "out")])
    assert err.value.code == 2
    assert str(plain) in capsys.readouterr().err


@pytest.mark.parametrize("name", ["plain/john.csv", "."])
def test_john_out_opened_before_any_domain(name, tmp_path, monkeypatch, capsys):
    def never(*args, **kwargs):
        raise AssertionError("a domain was measured before --out was opened")

    (tmp_path / "plain").write_text("")
    monkeypatch.setattr(cli_mod, "verify_segment_domains", never)
    with pytest.raises(SystemExit) as err:
        main(["john", "--dim", "2", "--order", "2", "--out", str(tmp_path / name)])
    assert err.value.code == 2
    assert str(tmp_path / name) in capsys.readouterr().err


def test_volterra_results_and_exit(tmp_path):
    out = tmp_path / "res.json"
    csv_path = tmp_path / "res.csv"
    code = main([
        "volterra", "--n", "1..3", "--grid", "12", "--kinds", "i,a",
        "--out", str(out), "--csv", str(csv_path),
    ])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["consistency"]["passed"]
    lows = {
        r["n"]: r["lower"] for r in payload["results"] if r["kind"] == "isomorphism"
    }
    assert lows == {1: "1/2", 2: "1/4", 3: "1/6"}
    for row in payload["results"]:
        assert Path(row["witness_path"]).exists()
    rows = list(csv.DictReader(csv_path.open()))
    assert {r["kind"] for r in rows} == {"isomorphism", "approximation"}


def test_volterra_isomorphism_bernstein_table(tmp_path):
    out = tmp_path / "res.json"
    code = main([
        "volterra", "--n", "1..3", "--grid", "240", "--kinds", "i,b",
        "--subspaces", "2", "--out", str(out),
    ])
    assert code == 0
    payload = json.loads(out.read_text())
    iso = {r["n"]: r["lower"] for r in payload["results"] if r["kind"] == "isomorphism"}
    assert iso == {1: "1/2", 2: "1/4", 3: "1/6"}
    bern = {r["n"]: r for r in payload["results"] if r["kind"] == "bernstein"}
    for n, row in bern.items():
        assert row["status"] == "certified"
        assert float(row["upper"]) <= 1.05 / (2 * n) + 1e-12


def test_volterra_bernstein_certified_at_four_and_five(tmp_path):
    # the local alternation search through the command, at its README scales
    out = tmp_path / "res.json"
    assert main(["volterra", "--n", "4,5", "--grid", "240", "--kinds", "b",
                 "--seed", "1", "--out", str(out)]) == 0
    rows = json.loads(out.read_text())["results"]
    assert [(r["kind"], r["n"], r["status"]) for r in rows] == [
        ("bernstein", 4, "certified"), ("bernstein", 5, "certified")]
    for row in rows:
        assert float(row["upper"]) <= 1.05 / (2 * row["n"])


def test_volterra_rows_carry_labels(tmp_path):
    out = tmp_path / "res.json"
    main(["volterra", "--n", "1", "--grid", "2", "--kinds", "i", "--out", str(out)])
    payload = json.loads(out.read_text())
    assert all(r["label"] for r in payload["results"])


def test_determinism_byte_identical(tmp_path):
    args = [
        "volterra", "--n", "1..2", "--grid", "16", "--kinds", "i,b,c",
        "--seed", "7", "--subspaces", "3",
    ]
    out = tmp_path / "a.json"
    main(args + ["--out", str(out)])
    first = out.read_bytes()
    main(args + ["--out", str(out)])
    assert out.read_bytes() == first


def test_cube_command(tmp_path):
    out = tmp_path / "cube.json"
    plot = tmp_path / "cube.tsv"
    code = main([
        "cube", "--dim", "2", "--m", "1,2", "--space", "2,1",
        "--curve-order", "2", "--grid", "16",
        "--out", str(out), "--plot-data", str(plot),
    ])
    assert code == 0
    payload = json.loads(out.read_text())
    iso = {r["n"]: r["lower"] for r in payload["results"] if r["kind"] == "isomorphism"}
    assert iso == {1: "1/4", 4: "1/8"}
    lines = plot.read_text().splitlines()
    assert lines[0].startswith("kind\tn")
    assert len(lines) > 2


def test_degenerate_basis_is_a_failed_invariant(tmp_path, monkeypatch, capsys):
    # a singular Gram in a cube run exits 1 and names the invariant, not 2
    def singular(basis):
        raise DegenerateBasisError("basis Gram matrix is singular")

    monkeypatch.setattr(cli_mod, "Subspace", singular)
    out = tmp_path / "cube.json"
    assert main(["cube", "--dim", "2", "--m", "2", "--grid", "16", "--curve-order", "2",
                 "--out", str(out)]) == 1
    message = capsys.readouterr().err
    assert "snum cube: basis is not linearly independent" in message
    assert "basis Gram matrix is singular" in message
    assert not out.exists()


@pytest.mark.parametrize("m,status,reason", [
    (3, "certified", None),
    (5, "certified", None),
    (6, "inconclusive", "basis elements [7, 10, 25, 28] vanish"),
    (7, "inconclusive", "basis elements [17, 23, 24, 25, 31] vanish"),
])
def test_cube_odd_and_uncovered_m(tmp_path, m, status, reason):
    # odd m used to exit 2 on rounded boundary nodes, m = 6 on an empty hat
    out = tmp_path / "cube.json"
    assert main(["cube", "--dim", "2", "--m", str(m), "--out", str(out)]) == 0
    rows = {r["kind"]: r for r in json.loads(out.read_text())["results"]}
    assert rows["isomorphism"]["status"] == "certified"
    assert rows["bernstein"]["status"] == status
    witness = json.loads(Path(rows["bernstein"]["witness_path"]).read_text())
    assert witness.get("reason", "").startswith(reason or "")


def test_selftest_subset(capsys):
    assert selftest_mod.run_selftest({"operator_norm_half"}) == 0
    captured = capsys.readouterr()
    assert "[PASS] operator_norm_half" in captured.out


def test_selftest_names_failed_checker_on_fault(monkeypatch, capsys):
    # fault injection: corrupt the generated table and watch the matrix name
    # the violated structural check
    def corrupted(dim, order):
        coords = hilbert_order(dim, order).coords.copy()
        mid = len(coords) // 2
        coords[[0, mid]] = coords[[mid, 0]]  # fancy indexing swaps the rows
        return HilbertOrdering(dim, order, coords)

    monkeypatch.setattr(selftest_mod, "hilbert_order", corrupted)
    assert selftest_mod.run_selftest({"hilbert_structure"}) == 1
    captured = capsys.readouterr()
    assert "[FAIL] hilbert_structure" in captured.out
    assert "check_face_adjacency" in captured.out or "check_prefix_nesting" in captured.out


def test_kolmogorov_first_scale_is_operator_norm(tmp_path):
    out = tmp_path / "res.json"
    assert main([
        "volterra", "--n", "1,2", "--grid", "8", "--kinds", "d",
        "--out", str(out),
    ]) == 0
    payload = json.loads(out.read_text())
    first = [r for r in payload["results"] if r["n"] == 1]
    assert first[0]["lower"] == "1/2" and first[0]["upper"] == "1/2"
    uppers = [r["upper"] for r in payload["results"] if r["n"] == 2 and r["upper"]]
    assert "1/4" in uppers


def test_no_scipy_on_the_import_or_run_path(tmp_path):
    # a fresh interpreter: importing the command line and running the
    # Kolmogorov kind leave no scipy module loaded
    code = (
        "import json, sys\n"
        "def scipy_modules():\n"
        "    return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "import snum.cli\n"
        "imported = scipy_modules()\n"
        "status = snum.cli.main(['volterra', '--n', '1..3', '--kinds', 'd', '--out', 'r.json'])\n"
        "print(json.dumps([imported, status, scipy_modules()]))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=_child_env(),
                          capture_output=True, text=True, check=True)
    assert json.loads(proc.stdout.splitlines()[-1]) == [[], 0, []]


def test_run_config_roundtrip():
    config = RunConfig(command="volterra", n_list=(1, 2), kinds=("isomorphism",))
    d = config.to_json_dict()
    assert d["command"] == "volterra" and d["n_list"] == [1, 2]
    assert "samples" not in d  # only `snum john` samples


def test_readme_commands_parse():
    # every `snum ...` line of README.md's sh blocks, continuations joined;
    # documentation naming a deleted or misspelled flag fails here
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", text, flags=re.S):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            if words[:1] == ["snum"]:
                commands.append(words[1:])
    assert {c[0] for c in commands} == {"volterra", "cube", "hilbert", "john", "selftest"}
    parser = build_parser()
    for argv in commands:
        parser.parse_args(argv)


def test_parser_lists():
    parser = build_parser()
    args = parser.parse_args(["volterra", "--n", "1..3,7"])
    assert args.n == (1, 2, 3, 7)
    # first appearance order, duplicates dropped; --m is the same list type
    assert parser.parse_args(["volterra", "--n", "3, 1..2,2"]).n == (3, 1, 2)
    assert parser.parse_args(["cube", "--m", "1,2,4"]).m == (1, 2, 4)


def test_run_rejects_other_commands():
    with pytest.raises(ValueError):
        run(RunConfig(command="hilbert"))
