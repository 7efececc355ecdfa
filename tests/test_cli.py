import json
import re
import subprocess
import sys

import numpy as np
import pytest

from bayeshield.cli import (
    CsvFormatError,
    main,
    read_dataset_csv,
    read_deltas_csv,
    read_frozen_file,
    read_report,
    read_trace_csv,
    write_dataset_csv,
    write_deltas_csv,
    write_trace_csv,
)
from bayeshield.core import LabeledDataset


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
    report = read_report(report_path)
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
    report = read_report(report_path)
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
    report = read_report(report_path)
    assert report["config"]["frozen_count"] == 30
    assert report["results"]["bayes_error_after"] >= report["results"]["bayes_error_before"]
    original = read_dataset_csv(data_path)
    perturbed = read_dataset_csv(out)
    for i in frozen:
        np.testing.assert_array_equal(perturbed.points[i], original.points[i])


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
    halvings = read_report(report_path)["results"]["halvings"]
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
