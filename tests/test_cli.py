"""Command-line entry points, exercised in-process through main(argv)."""

import json
import warnings

import numpy as np
import pytest

from dawa.cli import main
from dawa.core import read_data_file, read_workload_file
from dawa.generators import DATA_KINDS, WORKLOAD_KINDS, gen_synthetic_data, gen_workload

from .memory import peak_bytes

FLOOR_RULE = "the least epsilon accepted is 2**-50, about 8.9e-16"


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

    def test_identity_refuses_num_queries(self, capsys):
        rc = main(["workload", "--kind", "identity", "--n", "3", "--num-queries", "5"])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.err == "dawa: error: unknown params for identity workload: ['num_queries']\n"
        assert captured.out == ""

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

    def test_exact_refuses_infinite_eps2(self, data_file, capsys):
        rc = main(["partition", "--data", str(data_file), "--eps2", "inf", "--exact"])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines()[-1] == "dawa: error: eps2 must be positive and finite, got inf"
        assert captured.out == ""
        assert captured.err == "dawa: error: eps2 must be positive and finite, got inf\n"  # no warning first

    def test_overflowing_noise_scale_names_eps1(self, data_file, capsys):
        # 4/eps1 would be inf; eps1 is below the floor on epsilon and refused by its flag's name
        rc = main(["partition", "--data", str(data_file), "--eps1", "1e-310", "--eps2", "0.75"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err == f"dawa: error: eps1 = 1e-310 is too small: {FLOOR_RULE}\n"

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

    # at eps2 = 1e-310 the bucket price 1/eps2 would be inf, and at 1e-308 the sums of costs
    # would overflow; both lie below the floor on epsilon and are refused by name, before any cost
    @pytest.mark.parametrize("exact", [[], ["--exact"]], ids=["private", "exact"])
    @pytest.mark.parametrize("eps2", ["1e-310", "1e-308"])
    def test_costs_that_overflow_are_clean_error(self, tmp_path, capsys, window_index_calls, eps2, exact):
        p = tmp_path / "c.txt"
        assert main(["datagen", "--kind", "piecewise-constant", "--n", "100", "--seed", "1", "--out", str(p)]) == 0
        rc = main(["partition", "--data", str(p), "--eps1", "0.25", "--eps2", eps2, "--mode", "pow2", *exact])
        assert rc == 1
        assert window_index_calls == []
        captured = capsys.readouterr()
        assert captured.err == f"dawa: error: eps2 = {eps2} is too small: {FLOOR_RULE}\n"
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
        assert captured.err == f"dawa: error: eps2 = {eps2} is too small: {FLOOR_RULE}\n"
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
        lines = printed.splitlines()[:-1]
        assert len(lines) == 2 and all(line.endswith("  ms=0.0") for line in lines)

    def test_summary_prints_mean_wall_ms(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "mechanisms": ["identity", "dawa"], "epsilons": [0.5],
            "workload": {"kind": "uniform", "num_queries": 20},
            "data": {"kind": "piecewise_constant", "segments": 4},
            "n": 64, "num_workloads": 1, "trials": 2, "record_timing": True,
        }))
        out_path = tmp_path / "report.json"
        assert main(["run", "--config", str(cfg_path), "--out", str(out_path)]) == 0
        lines = capsys.readouterr().out.splitlines()[:-1]
        aggregates = json.loads(out_path.read_text())["aggregates"]
        assert [line.split()[0] for line in lines] == [agg["mechanism"] for agg in aggregates]
        for line, agg in zip(lines, aggregates):
            assert line.split()[-1] == f"ms={agg['mean_wall_ms']:.1f}"

    @pytest.mark.parametrize("field, value", [
        ("trials", 2.5), ("num_workloads", "3"), ("n", 16.5), ("workload", "kind"),
        ("epsilons", "12"), ("mechanisms", "dawa"),
        ("stage1_fraction", "x"), ("stage1_fraction", 1.0), ("record_timing", "false"),
        ("mode", "pow3"), ("branching", 1), ("epsilons", [0.5, float("inf")]), ("epsilons", ["0.5"]),
        ("mechanisms", ["identity", "identity"]), ("epsilons", [1, 1.0]),
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

    def test_budget_too_small_for_stage1_names_epsilon(self, tmp_path, capsys):
        # the config names no eps1, so the refusal names epsilon and its short share
        cfg = {"mechanisms": ["identity", "dawa"], "epsilons": [1e-310],
               "workload": {"kind": "uniform", "num_queries": 5},
               "data": {"kind": "constant"}, "n": 8, "num_workloads": 1, "trials": 1}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "r.json")]) == 1
        assert capsys.readouterr().err == (
            f"dawa: error: epsilon = 1e-310 is too small: its stage-1 share at stage1_fraction 0.25 is 2.5e-311, "
            f"and {FLOOR_RULE}\n"
        )
        assert not (tmp_path / "r.json").exists()

    def test_noise_that_would_overflow_is_refused_without_a_report(self, tmp_path, capsys):
        # the largest Laplace draw at 1/eps = 1e308, 36.04 times it, would overflow: the
        # budget is refused when it is split, before any trial
        cfg = {"mechanisms": ["identity"], "epsilons": [1e-308], "n": 16,
               "workload": {"kind": "uniform", "num_queries": 5},
               "data": {"kind": "constant"}, "num_workloads": 1, "trials": 1}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a warning would escape main as an exception
            assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "r.json")]) == 1
        assert capsys.readouterr().err == (f"dawa: error: epsilon = 1e-308 is too small: its stage-1 share at "
                                           f"stage1_fraction 0.25 is {1e-308 * 0.25}, and {FLOOR_RULE}\n")
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("mechanism, epsilon", [("hier_uniform", 3e-307), ("identity", 1e-305)])
    def test_budget_whose_errors_overflowed_is_refused_without_a_report(self, tmp_path, capsys, mechanism, epsilon):
        # every draw was finite, but hier_uniform's least squares overflowed to a NaN error and
        # identity's errors, near 1e306, overflowed their std; the split budget is refused first
        cfg = {"mechanisms": [mechanism], "epsilons": [epsilon], "n": 4096, "data": {"kind": "constant"},
               "workload": {"kind": "uniform", "num_queries": 50}, "num_workloads": 1, "trials": 2}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "r.json")]) == 1
        captured = capsys.readouterr()
        assert captured.err == (f"dawa: error: epsilon = {epsilon} is too small: its stage-1 share at stage1_fraction "
                                f"0.25 is {epsilon * 0.25}, and {FLOOR_RULE}\n")
        assert captured.out == "" and not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("part, params, message", [
        ("workload", {"kind": "uniform", "num_queries": 5.5}, "num_queries must be an integer, got 5.5"),
        ("data", {"kind": "heavy_tail", "alpha": 0.001},
         "alpha = 0.001 is too small: its Pareto draws over n = 16 overflow float64"),
    ])
    def test_bad_generator_parameter_is_clean_error(self, tmp_path, capsys, part, params, message):
        cfg = {"mechanisms": ["identity"], "epsilons": [0.5], "n": 16, "data": {"kind": "constant"},
               "workload": {"kind": "uniform", "num_queries": 5}, "num_workloads": 1, "trials": 1, part: params}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "r.json")]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"dawa: error: {message}\n"
        assert captured.out == "" and not (tmp_path / "r.json").exists()

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

    def test_budget_too_small_for_stage1_names_epsilon(self, tmp_path, capsys):
        # the command takes --epsilon, not eps1, so the refusal names the total
        pts = tmp_path / "pts.csv"
        pts.write_text("x,y\n0.5,0.5\n1.5,2.5\n")
        rects = tmp_path / "rects.csv"
        rects.write_text("xlo,xhi,ylo,yhi\n0.0,2.0,0.0,2.0\n")
        rc = main(["spatial", "--points", str(pts), "--rects", str(rects), "--epsilon", "1e-309", "--g", "2"])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == (
            f"dawa: error: epsilon = 1e-309 is too small: its stage-1 share at stage1_fraction 0.25 is 2.5e-310, "
            f"and {FLOOR_RULE}\n"
        )

    @pytest.mark.parametrize("epsilon, fraction, reason", [
        # stage 1's noise would overflow at the first three, its sums of 2n = 32 costs at 1e-304;
        # all have a share below the floor on epsilon
        ("3e-308", "0.9", f"its stage-1 share at stage1_fraction 0.9 is {3e-308 * 0.9}"),
        ("1e-306", "0.25", "its stage-1 share at stage1_fraction 0.25 is 2.5e-307"),
        ("1e-306", "0.99", f"its stage-1 share at stage1_fraction 0.99 is {1e-306 * 0.99}"),
        ("1e-304", "0.25", "its stage-1 share at stage1_fraction 0.25 is 2.5e-305"),
        # stage 1's share clears the floor, stage 2's does not
        ("1e-14", "0.99", f"its stage-2 share at stage1_fraction 0.99 is {1e-14 - 1e-14 * 0.99}"),
    ])
    def test_budget_whose_noise_overflows_names_epsilon(self, tmp_path, capsys, epsilon, fraction, reason):
        # the command has neither --eps1 nor --eps2, so the refusal names the total
        pts = tmp_path / "pts.csv"
        pts.write_text("x,y\n0.1,0.2\n0.5,0.5\n0.9,0.7\n")
        rects = tmp_path / "rects.csv"
        rects.write_text("xlo,xhi,ylo,yhi\n0,0.6,0,0.6\n")
        rc = main(["spatial", "--points", str(pts), "--rects", str(rects), "--epsilon", epsilon,
                   "--stage1-fraction", fraction, "--g", "2"])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == (
            f"dawa: error: epsilon = {epsilon} is too small: {reason}, and {FLOOR_RULE}\n")

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
        # without --box a NaN point once reached the box from the points' extent
        ("x,y\n0.5,0.2\n0.1,nan\n", "xlo,xhi,ylo,yhi\n0,4,0,4\n", "pts.csv", 3),
        ("x,y\n0,0\n-inf,4\n", "xlo,xhi,ylo,yhi\n0,4,0,4\n", "pts.csv", 3),
        ("x,y\n0,0\n4,4\n", "xlo,xhi,ylo,yhi\n0.5,0.2,0,1\n", "rects.csv", 2),
        ("x,y\n0,0\n4,4\n", "xlo,xhi,ylo,yhi\n0,4,0,4\nnan,0.2,0,1\n", "rects.csv", 3),
        ("x,y\n0,0\n4,4\n", "xlo,xhi,ylo,yhi\n0,1,0.3,0.3\n", "rects.csv", 2),
    ], ids=["points-short-row", "points-not-number", "rects-short-row", "points-nan", "points-infinite",
            "rects-reversed", "rects-nan", "rects-flat"])
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

    def test_infinite_rectangle_edge_is_clamped_to_the_box(self, tmp_path, capsys):
        (tmp_path / "pts.csv").write_text("x,y\n0.5,0.5\n1.5,2.5\n3.2,3.9\n")
        (tmp_path / "rects.csv").write_text("xlo,xhi,ylo,yhi\n-inf,inf,0,4\n")
        rc = main(["spatial", "--points", str(tmp_path / "pts.csv"), "--rects", str(tmp_path / "rects.csv"),
                   "--g", "1", "--epsilon", "1e9", "--box", "0", "4", "0", "4"])
        assert rc == 0
        row = capsys.readouterr().out.splitlines()[1].split(",")
        assert row[:4] == ["-inf", "inf", "0.0", "4.0"] and float(row[4]) == pytest.approx(3.0, abs=1e-4)

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
