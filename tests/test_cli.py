import hashlib
import io
import json
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from bayeshield import cli
from bayeshield.cli import (
    CsvFormatError,
    main,
    read_dataset_csv,
    read_deltas_csv,
    read_frozen_file,
    read_trace_csv,
    write_dataset_csv,
    write_deltas_csv,
    write_trace_csv,
)
from bayeshield.core import LabeledDataset
from bayeshield.embed import EmbeddingLayer, EmbeddingMap, save_embedding


def three_point_file(tmp_path, name="three.csv"):
    path = tmp_path / name
    write_dataset_csv(path, LabeledDataset([[0.0], [1.0], [2.0]], [0, 1, 1], 2))
    return path


def test_dataset_round_trip_bytes(tmp_path):
    rng = np.random.default_rng(0)
    ds = LabeledDataset(rng.normal(size=(17, 3)), rng.integers(0, 3, 17), 3)
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    write_dataset_csv(first, ds)
    loaded = read_dataset_csv(first)
    np.testing.assert_array_equal(loaded.points, ds.points)
    np.testing.assert_array_equal(loaded.labels, ds.labels)
    assert loaded.num_classes == 3
    write_dataset_csv(second, loaded)
    assert first.read_bytes() == second.read_bytes()


@pytest.mark.parametrize("table", ["dataset", "deltas"])
def test_table_writers_hold_one_row_at_a_time(tmp_path, table):
    rng = np.random.default_rng(8)
    ds = LabeledDataset(rng.normal(size=(200, 3072)), rng.integers(0, 10, 200), 10)
    path = tmp_path / f"{table}.csv"
    tracemalloc.start()
    try:
        if table == "dataset":
            write_dataset_csv(path, ds)
        else:
            write_deltas_csv(path, ds.points)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the table's text is about 12 MB, one row of it about 60 kB
    assert path.stat().st_size > 10e6
    assert peak < 1e6


def test_dataset_infers_class_count(tmp_path):
    path = tmp_path / "bare.csv"
    path.write_text("f0,label\n0.5,0\n1.5,2\n")
    ds = read_dataset_csv(path)
    assert ds.num_classes == 3


def test_dataset_label_outside_declared_k(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("# version=1\n# k=2\nf0,label\n0.0,0\n1.0,3\n")
    with pytest.raises(CsvFormatError, match=r"bad\.csv:5: label 3"):
        read_dataset_csv(path)


def test_dataset_non_numeric_field(tmp_path):
    path = tmp_path / "bad2.csv"
    path.write_text("f0,f1,label\n0.0,oops,1\n")
    with pytest.raises(CsvFormatError, match=r"bad2\.csv:2: column f1"):
        read_dataset_csv(path)


def test_dataset_bad_header(tmp_path):
    path = tmp_path / "bad3.csv"
    path.write_text("x,y,label\n0.0,1.0,0\n")
    with pytest.raises(CsvFormatError, match="header"):
        read_dataset_csv(path)


def test_dataset_wrong_field_count(tmp_path):
    path = tmp_path / "bad4.csv"
    path.write_text("f0,f1,label\n0.0,1.0\n")
    with pytest.raises(CsvFormatError, match="expected 3 fields, got 2"):
        read_dataset_csv(path)


def test_trace_and_deltas_round_trip(tmp_path):
    trace = [0.1, 0.15, 0.2]
    tpath = tmp_path / "t.csv"
    write_trace_csv(tpath, trace)
    np.testing.assert_array_equal(read_trace_csv(tpath), trace)
    deltas = np.random.default_rng(1).normal(size=(5, 2))
    dpath = tmp_path / "d.csv"
    write_deltas_csv(dpath, deltas)
    np.testing.assert_array_equal(read_deltas_csv(dpath), deltas)


def test_frozen_file_parsing(tmp_path):
    path = tmp_path / "frozen.txt"
    path.write_text("# pinned rows\n0\n2\n\n5\n")
    assert read_frozen_file(path) == frozenset({0, 2, 5})
    bad = tmp_path / "frozen_bad.txt"
    bad.write_text("1\ntwo\n")
    with pytest.raises(CsvFormatError, match="not an integer"):
        read_frozen_file(bad)


def test_non_utf8_input_names_the_file(tmp_path, capsys):
    data = three_point_file(tmp_path)
    bad_data = tmp_path / "latin.csv"
    bad_data.write_bytes(b"f0,label\n0.0,0\n1.0,\xff1\n")
    frozen = tmp_path / "frozen.txt"
    frozen.write_bytes(b"0\n\xff\n")
    embedding = tmp_path / "emb.json"
    embedding.write_bytes(b'{"version": 1, "layers": "\xff"}')
    cases = [
        (["estimate", str(bad_data), "--sigma", "1"], "latin.csv:3: not UTF-8 text"),
        (
            ["perturb", str(data), "--eps", "0.1", "--iters", "1", "--sigma", "1",
             "--frozen", str(frozen), "--out", str(tmp_path / "out.csv")],
            "frozen.txt:2: not UTF-8 text",
        ),
        (
            ["estimate", str(data), "--sigma", "1", "--embedding", str(embedding)],
            f"embedding file {embedding}: ",
        ),
    ]
    for argv, message in cases:
        assert main(argv) == 2
        assert message in capsys.readouterr().err


def test_estimate_missing_file_exits_2(tmp_path, capsys):
    code = main(["estimate", str(tmp_path / "nope.csv"), "--sigma", "1.0"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_estimate_malformed_file_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("# k=2\nf0,label\n0.0,7\n")
    code = main(["estimate", str(path), "--sigma", "1.0"])
    assert code == 2
    assert "label 7" in capsys.readouterr().err


def test_estimate_label_too_large_exits_2(tmp_path, capsys):
    path = tmp_path / "huge.csv"
    path.write_text("f0,label\n0.0,0\n1.0,99999999999999999999\n")
    with pytest.raises(CsvFormatError, match=r"huge\.csv:3: label"):
        read_dataset_csv(path)
    code = main(["estimate", str(path), "--sigma", "1.0"])
    assert code == 2
    assert "huge.csv:3" in capsys.readouterr().err


def test_estimate_inferred_class_count_above_rows_exits_2(tmp_path, capsys):
    path = tmp_path / "sparse.csv"
    path.write_text("f0,label\n0.0,0\n1.0,1\n2.0,1000000000000000\n")
    with pytest.raises(CsvFormatError, match=r"sparse\.csv:4: class count 1000000000000001 is over"):
        read_dataset_csv(path)
    code = main(["estimate", str(path), "--sigma", "1.0"])
    assert code == 2
    assert "sparse.csv:4" in capsys.readouterr().err


def test_estimate_declared_class_count_above_rows_exits_2(tmp_path, capsys):
    path = tmp_path / "wide.csv"
    path.write_text("# version=1\n# k=7\nf0,label\n0.0,0\n1.0,1\n2.0,1\n")
    with pytest.raises(CsvFormatError, match=r"wide\.csv:2: class count 7"):
        read_dataset_csv(path)
    code = main(["estimate", str(path), "--sigma", "1.0"])
    assert code == 2
    assert "wide.csv:2" in capsys.readouterr().err


def test_estimate_embedding_weight_not_a_matrix_exits_2(tmp_path, capsys):
    path = three_point_file(tmp_path)
    embedding = tmp_path / "emb.json"
    layer = {"weight": {"a": 1}, "bias": [0.0], "activation": "identity"}
    embedding.write_text(json.dumps({"version": 1, "layers": [layer]}))
    code = main(["estimate", str(path), "--sigma", "1.0", "--embedding", str(embedding)])
    assert code == 2
    err = capsys.readouterr().err
    assert "emb.json" in err and "layer 0" in err


def test_threads_flag_is_a_usage_error(tmp_path, capsys):
    # the worker count follows CPU affinity; no subcommand takes one
    path = str(three_point_file(tmp_path))
    out = str(tmp_path / "out.csv")
    for argv in (
        ["estimate", path, "--sigma", "1.0"],
        ["perturb", path, "--eps", "0.1", "--out", out],
        ["gradcheck", path, "--sigma", "1.0"],
        ["gen", "moons", "--out", out],
        ["demo", "moons", "--out", str(tmp_path)],
    ):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--threads", "2"])
        assert exc.value.code == 2
        assert "--threads" in capsys.readouterr().err


def test_estimate_rejects_nonpositive_sigma(tmp_path, capsys):
    path = three_point_file(tmp_path)
    code = main(["estimate", str(path), "--sigma", "-1"])
    assert code == 2
    assert "--sigma" in capsys.readouterr().err


@pytest.mark.parametrize("sigma, code", [("1e-300", 2), ("1e-150", 0)])
def test_estimate_tiny_sigma_warns_nothing(tmp_path, sigma, code):
    # 1e-300 squared is zero in float64; 1e-150 squared is still normal
    path = three_point_file(tmp_path)
    result = subprocess.run(
        [sys.executable, "-m", "bayeshield", "estimate", str(path), "--sigma", sigma],
        capture_output=True,
        text=True,
    )
    assert result.returncode == code
    assert "RuntimeWarning" not in result.stderr
    if code == 2:
        assert result.stderr == (
            "error: bandwidth 1e-300 is too small: its square is below the smallest "
            "normal float64, so sigma must be at least about 1.49e-154\n"
        )


def test_estimate_single_class_prints_zero(tmp_path, capsys):
    path = tmp_path / "one.csv"
    write_dataset_csv(path, LabeledDataset([[0.0], [1.0], [2.0]], [0, 0, 0], 1))
    code = main(["estimate", str(path), "--sigma", "1.0"])
    assert code == 0
    assert "bayes error: 0.000000" in capsys.readouterr().out


def test_estimate_three_point_value_and_per_sample(tmp_path, capsys):
    path = three_point_file(tmp_path)
    out = tmp_path / "post.csv"
    code = main(["estimate", str(path), "--sigma", "1.0", "--out", str(out)])
    assert code == 0
    text = capsys.readouterr().out
    assert "bayes error: 0.227475" in text
    lines = [l for l in out.read_text().splitlines() if not l.startswith(("#", "index"))]
    assert len(lines) == 3
    assert lines[1] == "1,0.5"


def test_estimate_moons_matches_expected_band(tmp_path, capsys):
    data_path = tmp_path / "moons.csv"
    assert main(["gen", "moons", "--seed", "7", "--out", str(data_path)]) == 0
    capsys.readouterr()
    code = main(["estimate", str(data_path), "--sigma", "0.425"])
    assert code == 0
    match = re.search(r"bayes error: (\d\.\d{6})", capsys.readouterr().out)
    assert match
    assert abs(float(match.group(1)) - 0.1435) <= 0.02


def test_estimate_report_round_trip(tmp_path, capsys):
    path = three_point_file(tmp_path)
    report_path = tmp_path / "report.json"
    code = main(
        ["estimate", str(path), "--sigma", "1.0", "--report", str(report_path)]
    )
    assert code == 0
    report = json.loads(report_path.read_text())
    assert report["version"] == 1
    assert report["command"] == "estimate"
    assert report["input_fingerprint"].startswith("sha256:")
    assert report["config"]["sigma"] == 1.0
    assert report["config"]["sigma_source"] == "flag"
    assert report["results"]["bayes_error"] == pytest.approx(0.2274751746, abs=1e-9)
    assert isinstance(report["timing_seconds"], float)


def test_perturb_zero_iterations_copies_input(tmp_path, capsys):
    path = three_point_file(tmp_path)
    out = tmp_path / "out.csv"
    code = main(
        ["perturb", str(path), "--eps", "0.5", "--iters", "0",
         "--sigma", "1.0", "--out", str(out)]
    )
    assert code == 0
    assert out.read_bytes() == path.read_bytes()
    deltas = read_deltas_csv(tmp_path / "out.deltas.csv")
    np.testing.assert_array_equal(deltas, np.zeros((3, 1)))
    trace = read_trace_csv(tmp_path / "out.trace.csv")
    assert len(trace) == 1


def test_perturb_moons_defaults_lift(tmp_path, capsys):
    data_path = tmp_path / "moons.csv"
    assert main(["gen", "moons", "--seed", "0", "--out", str(data_path)]) == 0
    out = tmp_path / "moons_adv.csv"
    report_path = tmp_path / "report.json"
    code = main(
        ["perturb", str(data_path), "--eps", "0.25", "--sigma", "0.425",
         "--out", str(out), "--report", str(report_path)]
    )
    assert code == 0
    report = json.loads(report_path.read_text())
    before = report["results"]["bayes_error_before"]
    after = report["results"]["bayes_error_after"]
    assert after / before >= 1.20
    assert report["config"]["eta"] == pytest.approx(0.0036 * 200 * 0.25)
    assert report["config"]["eta_source"] == "default"
    assert report["config"]["iters"] == 100
    trace = report["results"]["trace"]
    assert len(trace) == 101
    assert trace[0] == before
    assert trace[-1] == after
    perturbed = read_dataset_csv(out)
    original = read_dataset_csv(data_path)
    np.testing.assert_array_equal(perturbed.labels, original.labels)
    deltas = read_deltas_csv(tmp_path / "moons_adv.deltas.csv")
    norms = np.sqrt((deltas**2).sum(axis=1))
    assert norms.max() <= 0.25 + 1e-12


def test_perturb_frozen_rows_kept(tmp_path, capsys):
    data_path = tmp_path / "moons.csv"
    assert main(["gen", "moons", "--n", "60", "--seed", "1", "--out", str(data_path)]) == 0
    frozen_path = tmp_path / "frozen.txt"
    frozen = list(range(0, 60, 2))
    frozen_path.write_text("\n".join(str(i) for i in frozen) + "\n")
    out = tmp_path / "out.csv"
    report_path = tmp_path / "report.json"
    code = main(
        ["perturb", str(data_path), "--eps", "0.25", "--sigma", "0.425",
         "--frozen", str(frozen_path), "--out", str(out),
         "--report", str(report_path)]
    )
    assert code == 0
    report = json.loads(report_path.read_text())
    assert report["config"]["frozen_count"] == 30
    assert report["results"]["bayes_error_after"] >= report["results"]["bayes_error_before"]
    original = read_dataset_csv(data_path)
    perturbed = read_dataset_csv(out)
    for i in frozen:
        np.testing.assert_array_equal(perturbed.points[i], original.points[i])


def test_perturb_overflowing_default_step_names_the_budget(tmp_path, capsys):
    path = tmp_path / "wide.csv"
    rng = np.random.default_rng(5)
    write_dataset_csv(path, LabeledDataset(rng.normal(size=(600, 2)), rng.integers(0, 2, 600), 2))
    out = tmp_path / "out.csv"
    code = main(["perturb", str(path), "--eps", "1e308", "--sigma", "1", "--out", str(out)])
    assert code == 2
    assert "overflows at n=600, radius=1e+308" in capsys.readouterr().err
    assert not out.exists()


def test_perturb_overflowing_ascent_step_names_the_step(tmp_path, capsys):
    # the default step 0.0036 * 300 * 1e308 is finite, but the rows it
    # moves lie too far apart for their squared distances
    path = tmp_path / "wide.csv"
    rng = np.random.default_rng(5)
    write_dataset_csv(path, LabeledDataset(rng.normal(size=(300, 2)), rng.integers(0, 2, 300), 2))
    out = tmp_path / "out.csv"
    code = main(["perturb", str(path), "--eps", "1e308", "--sigma", "1", "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert "ascent step 0 at step size 1.08e+308, radius 1e+308: " in err
    assert "nearest neighbour overflows" in err
    assert not out.exists()


def test_perturb_all_frozen_exits_2(tmp_path, capsys):
    path = three_point_file(tmp_path)
    frozen_path = tmp_path / "frozen.txt"
    frozen_path.write_text("0\n1\n2\n")
    code = main(
        ["perturb", str(path), "--eps", "0.5", "--sigma", "1.0",
         "--frozen", str(frozen_path), "--out", str(tmp_path / "out.csv")]
    )
    assert code == 2
    assert "nothing to perturb" in capsys.readouterr().err


def test_gradcheck_three_point_passes(tmp_path, capsys):
    path = three_point_file(tmp_path)
    code = main(["gradcheck", str(path), "--sigma", "1.0"])
    assert code == 0
    text = capsys.readouterr().out
    match = re.search(r"max relative error: (\S+)", text)
    assert match
    assert float(match.group(1)) <= 1e-5
    assert "gradient check passed" in text


def test_gradcheck_single_class_passes(tmp_path, capsys):
    path = tmp_path / "one.csv"
    write_dataset_csv(path, LabeledDataset([[0.0], [2.0]], [0, 0], 1))
    assert main(["gradcheck", str(path), "--sigma", "1.0"]) == 0


def test_gradcheck_reports_and_excludes_ties(tmp_path, capsys):
    path = tmp_path / "tie.csv"
    write_dataset_csv(path, LabeledDataset([[0.0], [0.0], [5.0]], [0, 1, 0], 2))
    code = main(["gradcheck", str(path), "--sigma", "1.0"])
    text = capsys.readouterr().out
    assert "argmax ties at rows: 2" in text
    assert code == 0


def test_gradcheck_huge_h_fails(tmp_path, capsys):
    path = three_point_file(tmp_path)
    code = main(["gradcheck", str(path), "--sigma", "1.0", "--h", "1.0"])
    assert code == 1
    assert "FAILED" in capsys.readouterr().out


def test_gradcheck_subnormal_mass_passes_without_warnings(tmp_path):
    # at sigma 1, row 0's similarity mass exp(-710.6) + exp(-710.8) is subnormal
    path = tmp_path / "far.csv"
    path.write_text("f0,label\n0.0,0\n37.7,0\n-37.7037,1\n")
    result = subprocess.run(
        [sys.executable, "-m", "bayeshield", "gradcheck", str(path), "--sigma", "1"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert "RuntimeWarning" not in result.stderr
    assert "gradient check passed" in result.stdout


def test_gen_deterministic(tmp_path, capsys):
    a, b, c = (tmp_path / name for name in ("a.csv", "b.csv", "c.csv"))
    assert main(["gen", "moons", "--n", "50", "--seed", "4", "--out", str(a)]) == 0
    assert main(["gen", "moons", "--n", "50", "--seed", "4", "--out", str(b)]) == 0
    assert main(["gen", "moons", "--n", "50", "--seed", "5", "--out", str(c)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()


def test_gen_default_sizes(tmp_path, capsys):
    moons = tmp_path / "m.csv"
    tn = tmp_path / "t.csv"
    assert main(["gen", "moons", "--out", str(moons)]) == 0
    assert main(["gen", "truncnorm", "--out", str(tn)]) == 0
    assert read_dataset_csv(moons).n == 200
    ds = read_dataset_csv(tn)
    assert ds.n == 2000
    assert ds.d == 1


def test_module_entry_point_runs():
    result = subprocess.run(
        [sys.executable, "-m", "bayeshield", "--help"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert "estimate" in result.stdout
    assert "perturb" in result.stdout


def test_perturb_out_of_range_frozen_index_exits_2(tmp_path, capsys):
    data_path = tmp_path / "moons.csv"
    assert main(["gen", "moons", "--n", "40", "--seed", "0", "--out", str(data_path)]) == 0
    frozen_path = tmp_path / "frozen.txt"
    frozen_path.write_text("\n".join(str(i) for i in [*range(39), 99]) + "\n")
    code = main(
        ["perturb", str(data_path), "--eps", "0.25", "--sigma", "0.425",
         "--frozen", str(frozen_path), "--out", str(tmp_path / "out.csv")]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "outside the sample range" in err
    assert "nothing to perturb" not in err


def test_perturb_huge_eta_halves_steps_and_ascends(tmp_path):
    data_path = tmp_path / "moons.csv"
    report_path = tmp_path / "report.json"
    assert main(["gen", "moons", "--n", "40", "--seed", "0", "--out", str(data_path)]) == 0
    result = subprocess.run(
        [sys.executable, "-m", "bayeshield", "perturb", str(data_path), "--eps", "0.25",
         "--eta", "500", "--iters", "5", "--out", str(tmp_path / "out.csv"),
         "--report", str(report_path)],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert result.stderr == ""
    trace = read_trace_csv(tmp_path / "out.trace.csv")
    assert np.diff(trace).min() >= -1e-9
    assert trace[-1] >= trace[0]
    halvings = json.loads(report_path.read_text())["results"]["halvings"]
    assert len(halvings) == 5
    assert max(halvings) > 0


def test_deeply_nested_embedding_exits_2(tmp_path, capsys):
    path = three_point_file(tmp_path)
    embedding = tmp_path / "deep.json"
    embedding.write_text("[" * 200_000)
    code = main(["estimate", str(path), "--sigma", "1", "--embedding", str(embedding)])
    assert code == 2
    assert "deep.json" in capsys.readouterr().err


@pytest.mark.parametrize("field", ["nan", "inf", "-1e999"])
def test_non_finite_fields_name_line_and_column(tmp_path, field):
    dataset = tmp_path / "pts.csv"
    dataset.write_text(f"f0,f1,label\n0.1,0.2,0\n0.3,{field},1\n")
    with pytest.raises(CsvFormatError, match=rf"pts\.csv:3: column f1: '{field}' is not finite"):
        read_dataset_csv(dataset)
    deltas = tmp_path / "d.csv"
    deltas.write_text(f"# version=1\nf0,f1\n{field},0.0\n0.0,0.0\n")
    with pytest.raises(CsvFormatError, match=rf"d\.csv:3: column f0: '{field}' is not finite"):
        read_deltas_csv(deltas)
    trace = tmp_path / "t.csv"
    trace.write_text(f"# version=1\niter,bayes_error\n0,0.1\n1,{field}\n")
    with pytest.raises(
        CsvFormatError, match=rf"t\.csv:4: column bayes_error: '{field}' is not finite"
    ):
        read_trace_csv(trace)


# (reader, file text, line named in the message or None, rest of the message);
# a text of None leaves the path absent
READER_ERRORS = {
    "comment-after-header": (read_dataset_csv, "f0,label\n0.0,0\n# late\n1.0,1\n", 3,
                             "comment after header"),
    "unsupported-version": (read_deltas_csv, "# version=2\nf0\n0.0\n", 1,
                            "unsupported deltas version '2'"),
    "no-header-row": (read_dataset_csv, "# version=1\n\n# k=2\n", None, "no header row found"),
    "no-data-rows": (read_trace_csv, "# version=1\niter,bayes_error\n\n", None, "no data rows"),
    "expected-iteration": (read_trace_csv, "iter,bayes_error\n0,0.1\n2,0.2\n", 3,
                           "expected iteration 1"),
    "negative-integer": (read_dataset_csv, "f0,label\n0.0,0\n1.0,-1\n", 3, "label -1 is negative"),
    "over-64-bits": (read_frozen_file, "0\n\n9223372036854775808\n", 3,
                     "frozen index 9223372036854775808 does not fit in 64 bits"),
    "bad-trace-header": (read_trace_csv, "# version=1\niter,value\n0,0.1\n", 2,
                         "trace header must be iter,bayes_error"),
    "bad-deltas-header": (read_deltas_csv, "f0,g1\n0.0,0.0\n", 1,
                          "deltas header must be f0,..,f1"),
    "unreadable-path": (read_dataset_csv, None, None, "cannot read dataset"),
}


@pytest.mark.parametrize("case", list(READER_ERRORS))
def test_reader_errors_name_path_and_line(tmp_path, case):
    reader, text, line, message = READER_ERRORS[case]
    path = tmp_path / f"{case}.csv"
    if text is not None:
        path.write_text(text)
    with pytest.raises(CsvFormatError) as excinfo:
        reader(path)
    got = str(excinfo.value)
    if text is None:
        assert got.startswith(f"{message} {path}: ")
    elif line is None:
        assert got == f"{path}: {message}"
    else:
        assert got == f"{path}:{line}: {message}"


def test_first_bad_field_in_file_order_wins(tmp_path):
    path = tmp_path / "mixed.csv"
    path.write_text("f0,f1,label\n1e308,1e308,0\n0.0,nan,1\n0.0,oops,x\n")
    with pytest.raises(CsvFormatError, match=r"mixed\.csv:3: column f1: 'nan' is not finite"):
        read_dataset_csv(path)
    # finite fields whose sum overflows are read as they are
    path.write_text("f0,f1,label\n1e308,1e308,0\n-1e308,-1e308,1\n")
    points = read_dataset_csv(path).points
    np.testing.assert_array_equal(points, [[1e308, 1e308], [-1e308, -1e308]])


def moons_file(tmp_path, n=40, name="moons.csv"):
    path = tmp_path / name
    assert main(["gen", "moons", "--n", str(n), "--seed", "2", "--out", str(path)]) == 0
    return path


def map_file(tmp_path):
    rng = np.random.default_rng(3)
    path = tmp_path / "map.json"
    save_embedding(
        EmbeddingMap((
            EmbeddingLayer(rng.normal(size=(4, 2)), rng.normal(size=4), "tanh"),
            EmbeddingLayer(rng.normal(size=(2, 4)), np.zeros(2), "identity"),
        )),
        path,
    )
    return path


@pytest.mark.parametrize("command", [
    ["estimate", "--sigma", "0.4"],
    ["perturb", "--eps", "0.2", "--iters", "3", "--sigma", "0.4"],
], ids=["estimate", "perturb"])
def test_report_fingerprints_the_input_an_output_overwrites(tmp_path, capsys, command):
    path = moons_file(tmp_path)
    original = hashlib.sha256(path.read_bytes()).hexdigest()
    report_path = tmp_path / "report.json"
    name, *flags = command
    argv = [name, str(path), *flags, "--out", str(path), "--report", str(report_path)]
    assert main(argv) == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() != original
    assert json.loads(report_path.read_text())["input_fingerprint"] == f"sha256:{original}"


class ClosedAfterFirstLine(io.StringIO):
    """A stdout whose reader goes away once it has read one line."""

    def write(self, text):
        if "\n" in self.getvalue():
            raise BrokenPipeError(32, "Broken pipe")
        return super().write(text)


@pytest.mark.parametrize("command", ["estimate", "gradcheck"])
def test_closed_stdout_keeps_the_report(tmp_path, capsys, monkeypatch, command):
    # 13 far-apart copies of the tie case: the third row of each is tied
    path = tmp_path / "ties.csv"
    points = [[100.0 * t + x] for t in range(13) for x in (0.0, 0.0, 5.0)]
    write_dataset_csv(path, LabeledDataset(points, [0, 1, 0] * 13, 2))
    full, cut = tmp_path / "full.json", tmp_path / "cut.json"
    assert main([command, str(path), "--sigma", "1.0", "--report", str(full)]) in (0, 1)
    monkeypatch.setattr(sys, "stdout", ClosedAfterFirstLine())
    assert main([command, str(path), "--sigma", "1.0", "--report", str(cut)]) == 2
    assert capsys.readouterr().err == "error: [Errno 32] Broken pipe\n"
    results = json.loads(cut.read_text())["results"]
    assert results == json.loads(full.read_text())["results"]
    if command == "estimate":
        assert len(results["per_sample_max_posterior"]) == 39
    else:
        assert results["tied_rows"] == list(range(2, 39, 3))


@pytest.mark.parametrize("message, expected", [
    ("", "out of memory"),
    ("Unable to allocate 7.45 GiB", "Unable to allocate 7.45 GiB"),
], ids=["empty", "numpy"])
def test_out_of_memory_exits_2(tmp_path, capsys, monkeypatch, message, expected):
    def generate_moons(n, noise, seed):
        raise MemoryError(message)

    monkeypatch.setattr(cli, "generate_moons", generate_moons)
    code = main(["gen", "moons", "--n", "1000000000", "--out", str(tmp_path / "m.csv")])
    assert code == 2
    assert capsys.readouterr().err == f"error: {expected}\n"


@pytest.mark.parametrize("command", [
    ["gen", "moons"], ["gen", "truncnorm"], ["demo", "moons"], ["demo", "truncnorm"],
], ids="-".join)
def test_negative_seed_names_the_seed(tmp_path, capsys, command):
    code = main([*command, "--seed", "-1", "--out", str(tmp_path / "out")])
    assert code == 2
    assert capsys.readouterr().err == "error: seed must be non-negative, got -1\n"


# keys a report adds to the echoed flags: they describe the run, not a flag
RESOLVED_ONLY = ("sigma_source", "eta_source", "frozen_count", "n", "d", "k")


def replay(report: dict, report_path) -> dict:
    """Run a report's command again from its echoed config alone."""
    config = dict(report["config"])
    argv = [report["command"], config.pop("dataset")]
    for key, value in config.items():
        if key not in RESOLVED_ONLY and value is not None:
            argv += [f"--{key}", str(value)]
    assert main([*argv, "--report", str(report_path)]) == 0
    return json.loads(report_path.read_text())


@pytest.mark.parametrize("case", [
    "estimate", "estimate-embedding", "perturb-linf-frozen", "perturb-embedding", "gradcheck",
])
def test_echoed_config_replays_the_results(tmp_path, capsys, case):
    path = moons_file(tmp_path)
    frozen = tmp_path / "frozen.txt"
    frozen.write_text("0\n5\n9\n")
    out = tmp_path / "out.csv"
    argv = {
        "estimate": ["estimate", "--out", str(out)],
        "estimate-embedding": ["estimate", "--embedding", str(map_file(tmp_path))],
        "perturb-linf-frozen": ["perturb", "--eps", "0.2", "--iters", "4", "--norm", "linf",
                                "--frozen", str(frozen), "--out", str(out)],
        "perturb-embedding": ["perturb", "--eps", "0.2", "--iters", "4",
                              "--embedding", str(map_file(tmp_path)), "--out", str(out)],
        "gradcheck": ["gradcheck"],
    }[case]
    first_path = tmp_path / "first.json"
    assert main([argv[0], str(path), *argv[1:], "--report", str(first_path)]) == 0
    first = json.loads(first_path.read_text())
    outputs = {p: p.read_bytes() for p in tmp_path.glob("out*.csv")}
    again = replay(first, tmp_path / "again.json")
    assert again["results"] == first["results"]
    assert again["input_fingerprint"] == first["input_fingerprint"]
    assert {p: p.read_bytes() for p in tmp_path.glob("out*.csv")} == outputs
