"""Command-line entry points, exercised in-process through main(argv)."""

import json
import warnings

import numpy as np
import pytest

from dawa.cli import main
from dawa.core import read_data_file, read_workload_file
from dawa.generators import DATA_KINDS, WORKLOAD_KINDS, gen_synthetic_data, gen_workload

from .memory import peak_bytes


@pytest.fixture
def data_file(tmp_path):
    p = tmp_path / "x.txt"
    rc = main(["datagen", "--kind", "piecewise-constant", "--n", "64",
               "--seed", "3", "--segments", "4", "--out", str(p)])
    assert rc == 0
    return p


class TestDatagen:
    def test_writes_parseable_counts(self, data_file):
        x = read_data_file(data_file)
        assert x.n == 64

    def test_stdout_mode(self, capsys):
        rc = main(["datagen", "--kind", "constant", "--n", "4", "--seed", "0"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 4
        assert all(int(v) >= 0 for v in lines)

    def test_hyphen_kind_alias(self, tmp_path):
        p = tmp_path / "h.txt"
        assert main(["datagen", "--kind", "heavy-tail", "--n", "16",
                     "--seed", "1", "--out", str(p)]) == 0
        assert read_data_file(p).n == 16

    def test_bad_kind(self):
        with pytest.raises(SystemExit):
            main(["datagen", "--kind", "nope", "--n", "4", "--seed", "0"])


class TestWorkloadCmd:
    def test_round_trip(self, tmp_path):
        p = tmp_path / "w.csv"
        rc = main(["workload", "--kind", "uniform", "--n", "128", "--seed", "5",
                   "--num-queries", "17", "--out", str(p)])
        assert rc == 0
        W = read_workload_file(p)
        assert W.m == 17

    def test_stdout_csv(self, capsys):
        rc = main(["workload", "--kind", "identity", "--n", "3", "--seed", "0"])
        assert rc == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out[0] == "lo,hi"
        assert out[1:] == ["1,1", "2,2", "3,3"]


class TestPartitionCmd:
    def test_private_output(self, data_file, capsys):
        rc = main(["partition", "--data", str(data_file), "--eps1", "0.25",
                   "--eps2", "0.75", "--seed", "1", "--mode", "pow2"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "lo,hi"
        pairs = [tuple(map(int, ln.split(","))) for ln in lines[1:]]
        assert pairs[0][0] == 1
        assert pairs[-1][1] == 64
        for (_, a), (b, _) in zip(pairs, pairs[1:]):
            assert b == a + 1

    def test_exact_warns_not_private(self, data_file, capsys):
        rc = main(["partition", "--data", str(data_file), "--eps1", "0.25",
                   "--eps2", "0.75", "--exact"])
        assert rc == 0
        err = capsys.readouterr().err
        assert "NOT private" in err

    def test_exact_needs_no_eps1(self, data_file, capsys):
        rc = main(["partition", "--data", str(data_file), "--eps2", "0.75", "--exact"])
        assert rc == 0
        out = capsys.readouterr().out
        main(["partition", "--data", str(data_file), "--eps1", "0.25", "--eps2", "0.75", "--exact"])
        assert capsys.readouterr().out == out and out.startswith("lo,hi\n")

    def test_private_without_eps1_is_clean_error(self, data_file, capsys):
        rc = main(["partition", "--data", str(data_file), "--eps2", "0.75"])
        assert rc == 1
        assert capsys.readouterr().err == "dawa: error: --eps1 is required unless --exact is given\n"

    def test_deterministic(self, data_file, capsys):
        args = ["partition", "--data", str(data_file), "--eps1", "0.25",
                "--eps2", "0.75", "--seed", "9"]
        main(args)
        first = capsys.readouterr().out
        main(args)
        assert capsys.readouterr().out == first

    # at eps2 = 1e-310 the bucket price 1/eps2 is inf, and at 1e-308 the sums of costs overflow
    @pytest.mark.parametrize("exact", [[], ["--exact"]], ids=["private", "exact"])
    @pytest.mark.parametrize("eps2", ["1e-310", "1e-308"])
    def test_costs_that_overflow_are_clean_error(self, tmp_path, capsys, window_index_calls, eps2, exact):
        p = tmp_path / "c.txt"
        assert main(["datagen", "--kind", "piecewise-constant", "--n", "100", "--seed", "1", "--out", str(p)]) == 0
        rc = main(["partition", "--data", str(p), "--eps1", "0.25", "--eps2", eps2, "--mode", "pow2", *exact])
        assert rc == 1
        assert window_index_calls == []  # refused from the parameters, before any cost
        captured = capsys.readouterr()
        assert captured.err.splitlines()[-1].startswith("dawa: error: stage-1 costs reach ")
        assert "a larger eps1 or eps2 is needed" in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""

    # n = 4096 in mode all: the refusal used to come after 8.4M costs
    @pytest.mark.parametrize("exact", [[], ["--exact"]], ids=["private", "exact"])
    @pytest.mark.parametrize("eps2", ["1e-310", "1e-308"])
    def test_overflow_refused_before_any_cost_at_n_4096(self, tmp_path, capsys, window_index_calls, eps2, exact):
        p = tmp_path / "c.txt"
        assert main(["datagen", "--kind", "piecewise-constant", "--n", "4096", "--seed", "1", "--out", str(p)]) == 0
        rc = main(["partition", "--data", str(p), "--eps1", "0.25", "--eps2", eps2, "--mode", "all", *exact])
        assert rc == 1
        assert window_index_calls == []
        captured = capsys.readouterr()
        assert captured.err.splitlines()[-1].startswith("dawa: error: stage-1 costs reach ")
        assert captured.out == ""

    def test_count_outside_int64_is_clean_error(self, tmp_path, capsys):
        p = tmp_path / "huge.txt"
        p.write_text(f"3\n\n{2**63}\n")
        rc = main(["partition", "--data", str(p), "--eps1", "0.25", "--eps2", "0.75"])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"dawa: error: {p}:3:")
        assert "Traceback" not in captured.err
        assert captured.out == ""

    def test_negative_count_is_clean_error(self, tmp_path, capsys):
        p = tmp_path / "negative.txt"
        p.write_text("3\n-1\n")
        rc = main(["partition", "--data", str(p), "--eps1", "0.25", "--eps2", "0.75"])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"dawa: error: {p}:2:")
        assert "Traceback" not in captured.err
        assert captured.out == ""

    def test_out_of_memory_is_clean_error(self, data_file, monkeypatch, capsys):
        # numpy reports a failed allocation as a MemoryError subclass whose
        # message states the size; the CLI passes that message on
        def allocate(*args, **kwargs):
            raise MemoryError("Unable to allocate 1.00 GiB for an array with shape "
                              "(134217728,) and data type float64")

        monkeypatch.setattr("dawa.cli.private_partition", allocate)
        rc = main(["partition", "--data", str(data_file), "--eps1", "0.25", "--eps2", "0.75",
                   "--mode", "all"])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("dawa: error: out of memory: Unable to allocate 1.00 GiB")
        assert "Traceback" not in captured.err
        assert captured.out == ""

    def test_stage1_too_large_is_refused_before_allocating(self, tmp_path, monkeypatch, capsys):
        # n = 16384 in mode all has 134,225,920 candidates: 1.0 GiB for
        # their float64 costs, against 0.5 GiB of memory
        p = tmp_path / "x.txt"
        p.write_text("1\n" * 16384)
        monkeypatch.setattr("dawa.partition._physical_memory", lambda: 2.0**29)
        peak, rc = peak_bytes(main, ["partition", "--data", str(p), "--eps1", "0.25", "--eps2", "0.75",
                                     "--mode", "all"])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.err == (
            "dawa: error: stage 1 needs about 1.0 GiB for 134225920 candidate buckets "
            "(mode 'all', n = 16384) but this machine has 0.5 GiB\n"
        )
        assert captured.out == ""
        assert peak < 16 * 2**20

    def test_stage1_that_fits_runs(self, monkeypatch, capsys, tmp_path):
        # n = 1024 in mode all needs 4.2 MB
        p = tmp_path / "x.txt"
        p.write_text("1\n" * 1024)
        monkeypatch.setattr("dawa.partition._physical_memory", lambda: 2.0**30)
        rc = main(["partition", "--data", str(p), "--eps1", "0.25", "--eps2", "0.75",
                   "--mode", "all"])
        assert rc == 0
        assert capsys.readouterr().out.startswith("lo,hi\n1,")


class TestRunCmd:
    def test_end_to_end(self, tmp_path, capsys):
        cfg = {
            "mechanisms": ["identity", "dawa"],
            "epsilons": [0.5],
            "workload": {"kind": "uniform", "num_queries": 20},
            "data": {"kind": "piecewise_constant", "segments": 4},
            "n": 64,
            "num_workloads": 1,
            "trials": 2,
            "master_seed": 7,
            "record_timing": False,
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out_path = tmp_path / "report.json"
        rc = main(["run", "--config", str(cfg_path), "--out", str(out_path)])
        assert rc == 0
        doc = json.loads(out_path.read_text())
        assert len(doc["results"]) == 4
        printed = capsys.readouterr().out
        assert "identity" in printed and "dawa" in printed

    @pytest.mark.parametrize("field, value", [
        ("trials", 2.5), ("num_workloads", "3"), ("n", 16.5), ("workload", "kind"),
        ("epsilons", "12"), ("mechanisms", "dawa"),
        ("stage1_fraction", "x"), ("stage1_fraction", 1.0), ("record_timing", "false"),
        ("mode", "pow3"), ("branching", 1), ("epsilons", [0.5, float("inf")]), ("epsilons", ["0.5"]),
    ])
    def test_malformed_config_is_clean_error(self, tmp_path, capsys, field, value):
        cfg = {
            "mechanisms": ["identity"], "epsilons": [0.5],
            "workload": {"kind": "uniform", "num_queries": 5},
            "data": {"kind": "constant"}, "n": 8, "num_workloads": 1, "trials": 1,
        }
        cfg[field] = value
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        rc = main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "r.json")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("dawa: error:") and repr(field) in err
        assert "Traceback" not in err
        assert not (tmp_path / "r.json").exists()

    def test_experiment_too_large_is_refused_before_the_first_trial(self, tmp_path, monkeypatch, capsys):
        # n = 16384 in mode all: the shared deviations and one trial's noisy
        # costs are 1.0 GiB each, against 1.5 GiB of memory
        data = tmp_path / "x.txt"
        data.write_text("1\n" * 16384)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "mechanisms": ["identity", "dawa"], "epsilons": [0.5], "mode": "all",
            "workload": {"kind": "uniform", "num_queries": 5},
            "data": {"path": str(data)}, "num_workloads": 1, "trials": 1,
        }))
        monkeypatch.setattr("dawa.partition._physical_memory", lambda: 1.5 * 2**30)
        peak, rc = peak_bytes(main, ["run", "--config", str(cfg_path), "--out", str(tmp_path / "r.json")])
        assert rc == 1
        assert capsys.readouterr().err == (
            "dawa: error: stage 1 needs about 2.0 GiB for 134225920 candidate buckets "
            "(mode 'all', n = 16384) but this machine has 1.5 GiB\n"
        )
        assert not (tmp_path / "r.json").exists()
        assert peak < 16 * 2**20

    def test_missing_config(self, tmp_path, capsys):
        rc = main(["run", "--config", str(tmp_path / "none.json"),
                   "--out", str(tmp_path / "r.json")])
        assert rc == 1
        assert "dawa: error:" in capsys.readouterr().err


class TestSpatialCmd:
    def test_end_to_end(self, tmp_path, capsys):
        pts = tmp_path / "pts.csv"
        pts.write_text("x,y\n0.5,0.5\n1.5,2.5\n3.2,3.9\n2.1,0.4\n3.9,3.9\n")
        rects = tmp_path / "rects.csv"
        rects.write_text("xlo,xhi,ylo,yhi\n0.0,2.0,0.0,2.0\n0.0,4.0,0.0,4.0\n")
        rc = main(["spatial", "--points", str(pts), "--rects", str(rects),
                   "--g", "2", "--epsilon", "1e9", "--seed", "1",
                   "--box", "0", "4", "0", "4"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "xlo,xhi,ylo,yhi,answer"
        answers = [float(ln.rsplit(",", 1)[1]) for ln in lines[1:]]
        assert answers[0] == pytest.approx(1.0, abs=1e-4)
        assert answers[1] == pytest.approx(5.0, abs=1e-4)

    def test_box_inferred_from_points(self, tmp_path, capsys):
        pts = tmp_path / "pts.csv"
        pts.write_text("x,y\n0.0,0.0\n4.0,4.0\n")
        rects = tmp_path / "rects.csv"
        rects.write_text("xlo,xhi,ylo,yhi\n0.0,4.0,0.0,4.0\n")
        rc = main(["spatial", "--points", str(pts), "--rects", str(rects),
                   "--g", "1", "--epsilon", "1e9", "--seed", "0"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        # a lone full-domain query drives the tree root to the weight cap,
        # which floors the recovery error near 1e-4 regardless of budget
        assert float(lines[1].rsplit(",", 1)[1]) == pytest.approx(2.0, abs=1e-2)


    def test_box_outside_grid_reads_zero(self, tmp_path, capsys):
        pts = tmp_path / "pts.csv"
        pts.write_text("x,y\n0.5,0.5\n1.5,2.5\n3.2,3.9\n")
        rects = tmp_path / "rects.csv"
        rects.write_text("xlo,xhi,ylo,yhi\n5.0,6.0,1.0,2.0\n-3.0,-1.0,1.0,2.0\n0.0,4.0,0.0,4.0\n")
        rc = main(["spatial", "--points", str(pts), "--rects", str(rects),
                   "--g", "2", "--epsilon", "1.0", "--seed", "1", "--box", "0", "4", "0", "4"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert [ln.rsplit(",", 1)[1] for ln in lines[1:3]] == ["0.0", "0.0"]

    def test_header_with_spaces(self, tmp_path, capsys):
        pts = tmp_path / "pts.csv"
        pts.write_text("x, y\n0.0, 0.0\n4.0, 4.0\n")
        rects = tmp_path / "rects.csv"
        rects.write_text("xlo, xhi, ylo, yhi\n0.0, 4.0, 0.0, 4.0\n")
        rc = main(["spatial", "--points", str(pts), "--rects", str(rects),
                   "--g", "1", "--epsilon", "1.0", "--seed", "0"])
        assert rc == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 2

    @pytest.mark.parametrize("points, rects, bad, line", [
        ("x, y\n0,0\n4\n", "xlo,xhi,ylo,yhi\n0,4,0,4\n", "pts.csv", 3),
        ("x,y\n0,0\n4,four\n", "xlo,xhi,ylo,yhi\n0,4,0,4\n", "pts.csv", 3),
        ("x,y\n0,0\n4,4\n", "xlo,xhi,ylo,yhi\n0,4,0\n", "rects.csv", 2),
    ], ids=["points-short-row", "points-not-number", "rects-short-row"])
    def test_bad_row_is_clean_error(self, tmp_path, capsys, points, rects, bad, line):
        (tmp_path / "pts.csv").write_text(points)
        (tmp_path / "rects.csv").write_text(rects)
        rc = main(["spatial", "--points", str(tmp_path / "pts.csv"),
                   "--rects", str(tmp_path / "rects.csv"), "--g", "1", "--epsilon", "1.0"])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"dawa: error: {tmp_path / bad}:{line}: ")
        assert "Traceback" not in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("g", [32, 40])
    def test_oversized_grid_is_clean_error(self, tmp_path, capsys, g):
        # 4^g cells: refused before the grid or the curve table is built
        (tmp_path / "pts.csv").write_text("x,y\n0.5,0.5\n1.5,2.5\n3.2,3.9\n")
        (tmp_path / "rects.csv").write_text("xlo,xhi,ylo,yhi\n0.0,2.0,0.0,2.0\n")
        rc = main(["spatial", "--points", str(tmp_path / "pts.csv"),
                   "--rects", str(tmp_path / "rects.csv"), "--g", str(g), "--epsilon", "1.0"])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("dawa: error: ")
        assert "Traceback" not in captured.err
        assert captured.out == ""


@pytest.mark.parametrize("argv", [
    ["workload", "--kind", "uniform", "--n", "64", "--num-queries", "9", "--seed", "2"],
    ["datagen", "--kind", "heavy-tail", "--n", "32", "--seed", "1"],
    ["spatial", "--points", "{pts}", "--rects", "{rects}", "--g", "2", "--epsilon", "1.0"],
], ids=["workload", "datagen", "spatial"])
def test_out_file_has_the_stdout_bytes(tmp_path, capsys, argv):
    (tmp_path / "pts.csv").write_text("x,y\n0.5,0.5\n1.5,2.5\n3.2,3.9\n")
    (tmp_path / "rects.csv").write_text("xlo,xhi,ylo,yhi\n0.0,2.0,0.0,2.0\n1.0,4.0,0.5,3.0\n")
    argv = [a.format(pts=tmp_path / "pts.csv", rects=tmp_path / "rects.csv") for a in argv]
    assert main(argv) == 0
    stdout = capsys.readouterr().out
    out = tmp_path / "out.csv"
    assert main(argv + ["--out", str(out)]) == 0
    assert out.read_bytes() == stdout.encode()
    assert b"\r" not in out.read_bytes()


@pytest.mark.parametrize("command, kind, flag, value, params", [
    ("datagen", "constant", "--value", "7", {"value": 7}),
    ("datagen", "heavy-tail", "--total", "123.5", {"total": 123.5}),
    ("workload", "clustered", "--sigma", "3.5", {"sigma": 3.5}),
    ("workload", "clustered", "--clusters", "2", {"num_clusters": 2}),
    ("workload", "large-clustered", "--per-cluster", "7", {"queries_per_cluster": 7}),
], ids=["value", "total", "sigma", "clusters", "per-cluster"])
def test_generator_flag_passes_through(tmp_path, command, kind, flag, value, params):
    out = tmp_path / "out"
    assert main([command, "--kind", kind, "--n", "64", "--seed", "3", flag, value, "--out", str(out)]) == 0
    kind = kind.replace("-", "_")
    if command == "datagen":
        want, default = (gen_synthetic_data(kind, 64, 3, **p).counts.tolist() for p in (params, {}))
        got = read_data_file(out).counts.tolist()
    else:
        want, default = (list(gen_workload(kind, 64, 3, **p)) for p in (params, {}))
        got = list(read_workload_file(out))
    assert got == want != default


@pytest.mark.parametrize("argv, name", [
    (["datagen", "--kind", "piecewise-constant", "--total", "nan"], "total"),
    (["datagen", "--kind", "heavy-tail", "--total", "inf"], "total"),
    (["workload", "--kind", "clustered", "--sigma", "nan"], "sigma"),
    (["workload", "--kind", "clustered", "--sigma", "-1"], "sigma"),
    (["workload", "--kind", "uniform", "--num-queries", "-1"], "num_queries"),
    (["workload", "--kind", "clustered", "--clusters", "0"], "num_clusters"),
    (["workload", "--kind", "large-clustered", "--per-cluster", "0"], "queries_per_cluster"),
    (["datagen", "--kind", "constant", "--value", str(2**70)], "value"),
    (["datagen", "--kind", "heavy-tail", "--total", "1e300"], "total"),
    (["datagen", "--kind", "piecewise-constant", "--total", "0"], "total"),
])
def test_bad_generator_parameter_is_clean_error(capsys, argv, name):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a warning would escape main as an exception
        assert main(argv + ["--n", "16"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"dawa: error: {name} must be ") and err.count("\n") == 1


@pytest.mark.parametrize("command, kind", [("workload", k) for k in WORKLOAD_KINDS]
                         + [("datagen", k) for k in DATA_KINDS])
def test_every_generator_kind_runs(tmp_path, command, kind):
    out = tmp_path / "out"
    assert main([command, "--kind", kind.replace("_", "-"), "--n", "32", "--seed", "1", "--out", str(out)]) == 0
    if command == "datagen":
        assert read_data_file(out).counts.tolist() == gen_synthetic_data(kind, 32, 1).counts.tolist()
    else:
        assert list(read_workload_file(out)) == list(gen_workload(kind, 32, 1))


class TestTopLevel:
    def test_no_args_shows_usage(self, capsys):
        with pytest.raises(SystemExit):
            main([])

    def test_help(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
