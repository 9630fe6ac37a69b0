"""Tests for the command-line interface."""

from __future__ import annotations

import json
import re

import pytest

from repro.cli import main


class TestSolveThreshold:
    def test_prints_parameters(self, capsys):
        code = main(["solve-threshold", "--n", "50000", "--k", "20000"])
        out = capsys.readouterr().out
        assert code == 0
        assert "samples per node" in out
        assert "alarm threshold" in out

    def test_exact_flag(self, capsys):
        code = main(["solve-threshold", "--n", "50000", "--k", "20000", "--exact"])
        assert code == 0

    def test_with_trials(self, capsys):
        code = main(
            ["solve-threshold", "--n", "20000", "--k", "10000", "--eps", "1.0",
             "--trials", "5"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "measured over 5 trials" in out

    def test_infeasible_exits_2(self, capsys):
        code = main(["solve-threshold", "--n", "100", "--k", "10"])
        err = capsys.readouterr().err
        assert code == 2
        assert "error:" in err


class TestParameterValidation:
    """Out-of-range --eps / --p exit 2 with a clear message, not a crash."""

    @pytest.mark.parametrize("eps", ["3.0", "0", "-1"])
    def test_eps_outside_unit_l1_range_rejected(self, capsys, eps):
        code = main(["solve-threshold", "--n", "50000", "--k", "20000",
                     "--eps", eps])
        err = capsys.readouterr().err
        assert code == 2
        assert "error:" in err and "--eps" in err and "(0, 2]" in err

    @pytest.mark.parametrize("p", ["0", "1", "1.5", "-0.25"])
    def test_p_outside_open_interval_rejected(self, capsys, p):
        code = main(["solve-threshold", "--n", "50000", "--k", "20000",
                     "--p", p])
        err = capsys.readouterr().err
        assert code == 2
        assert "error:" in err and "--p" in err and "(0, 1)" in err

    def test_validation_covers_other_commands(self, capsys):
        code = main(["solve-congest", "--n", "500", "--k", "5000",
                     "--diameter", "20", "--eps", "2.5"])
        assert code == 2
        assert "--eps" in capsys.readouterr().err

    @pytest.mark.parametrize("n", ["1", "0", "-5"])
    def test_too_small_n_rejected(self, capsys, n):
        code = main(["solve-threshold", "--n", n, "--k", "20000"])
        err = capsys.readouterr().err
        assert code == 2
        assert "error:" in err and "--n" in err and ">= 2" in err

    @pytest.mark.parametrize("k", ["0", "-7"])
    def test_nonpositive_k_rejected(self, capsys, k):
        code = main(["solve-threshold", "--n", "50000", "--k", k])
        err = capsys.readouterr().err
        assert code == 2
        assert "error:" in err and "--k" in err and ">= 1" in err

    def test_small_n_k_rejected_on_every_command(self, capsys):
        for argv in (
            ["demo", "--n", "1", "--k", "100"],
            ["bounds", "--n", "50000", "--k", "0"],
            ["solve-congest", "--n", "1", "--k", "60"],
            ["robustness", "--n", "200", "--k", "0"],
        ):
            code = main(argv)
            err = capsys.readouterr().err
            assert code == 2, argv
            assert "error:" in err, argv

    def test_topology_minimum_nodes_enforced(self, capsys):
        # A ring needs >= 3 nodes; only commands that build the topology check.
        code = main(["robustness", "--n", "200", "--k", "2",
                     "--topology", "ring", "--trials", "1"])
        err = capsys.readouterr().err
        assert code == 2
        assert "--topology ring needs k >= 3" in err

    def test_topology_minimum_skipped_without_trials(self, capsys):
        # solve-congest without --trials never builds the topology: the
        # small-ring check must not fire (the solver's own infeasibility
        # message surfaces instead).
        code = main(["solve-congest", "--n", "500", "--k", "2",
                     "--diameter", "20", "--topology", "ring"])
        err = capsys.readouterr().err
        assert code == 2
        assert "--topology" not in err
        assert "feasible" in err

    def test_in_range_values_accepted(self, capsys):
        code = main(["solve-threshold", "--n", "50000", "--k", "20000",
                     "--eps", "1.5", "--p", "0.49"])
        assert code == 0


class TestOtherCommands:
    def test_solve_and(self, capsys):
        code = main(
            ["solve-and", "--n", "50000", "--k", "1024", "--eps", "1.0",
             "--p", "0.45"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "repetitions m" in out

    def test_solve_congest(self, capsys):
        code = main(
            ["solve-congest", "--n", "500", "--k", "5000", "--diameter", "20"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "package size tau" in out
        assert "D=20" in out

    def test_solve_congest_trials_fast_path(self, capsys):
        code = main(
            ["solve-congest", "--n", "200", "--k", "60",
             "--samples-per-node", "64", "--trials", "5"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "measured over 5 trials on star (trial plane)" in out
        assert "err(uniform)=" in out and "err(far)=" in out

    def test_solve_congest_engine_route_agrees(self, capsys):
        args = ["solve-congest", "--n", "200", "--k", "60",
                "--samples-per-node", "64", "--trials", "4"]
        assert main(args) == 0
        fast = capsys.readouterr().out.splitlines()[-1]
        assert main(args + ["--engine"]) == 0
        engine = capsys.readouterr().out.splitlines()[-1]
        # Same error rates either route; only the label differs.
        assert fast.replace("trial plane", "engine") == engine

    def test_solve_congest_nonpositive_trials_exits_2(self, capsys):
        for bad in ("0", "-3"):
            code = main(
                ["solve-congest", "--n", "200", "--k", "60",
                 "--trials", bad]
            )
            err = capsys.readouterr().err
            assert code == 2
            assert "--trials must be a positive trial count" in err

    def test_solve_congest_fast_path_engine_exclusive(self, capsys):
        with pytest.raises(SystemExit):
            main(["solve-congest", "--n", "200", "--k", "60",
                  "--trials", "2", "--fast-path", "--engine"])

    def test_robustness_fast_path(self, capsys):
        code = main(
            ["robustness", "--n", "200", "--k", "60",
             "--samples-per-node", "64", "--trials", "2",
             "--drop-probs", "0.0", "0.05", "--seed", "2018"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "[fault plane]" in out
        assert "err(unif)" in out and "engine trials" in out

    def test_robustness_engine_route(self, capsys):
        code = main(
            ["robustness", "--n", "200", "--k", "60",
             "--samples-per-node", "64", "--trials", "1",
             "--drop-probs", "0.0", "--engine"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "[engine]" in out

    def test_robustness_validation_exits_2(self, capsys):
        base = ["robustness", "--n", "200", "--k", "60",
                "--samples-per-node", "64"]
        for extra, needle in (
            (["--trials", "0"], "--trials must be a positive"),
            (["--engine-check", "1.5"], "--engine-check must be in [0, 1]"),
            (["--drop-probs", "1.5"], "--drop-probs entries"),
            (["--crash-fractions", "1.0"], "--crash-fractions entries"),
        ):
            code = main(base + extra)
            err = capsys.readouterr().err
            assert code == 2
            assert "error:" in err and needle in err

    def test_robustness_fast_path_engine_exclusive(self):
        with pytest.raises(SystemExit):
            main(["robustness", "--n", "200", "--k", "60",
                  "--trials", "2", "--fast-path", "--engine"])

    # Feasible Section 6 instance: ring(512) at r=8 fits Theorem 1.1.
    _LOCAL = ["local", "--n", "2000", "--k", "512", "--eps", "1.5",
              "--p", "0.45", "--radius", "8"]

    def test_local_fast_path(self, capsys):
        code = main(self._LOCAL + ["--trials", "20"])
        out = capsys.readouterr().out
        assert code == 0
        assert "MIS virtual nodes" in out
        assert "(local plane)" in out

    def test_local_engine_route_agrees(self, capsys):
        code = main(self._LOCAL + ["--trials", "20"])
        fast = capsys.readouterr().out
        assert code == 0
        code = main(self._LOCAL + ["--trials", "20", "--engine"])
        engine = capsys.readouterr().out
        assert code == 0
        assert "(scalar tester)" in engine
        # Same seeds, same streams: the measured rates must match exactly.
        assert fast.split("(local plane): ")[1] == \
            engine.split("(scalar tester): ")[1]

    # The E7 ring: choose_radius certifies r=8 on seed 8's MIS, which the
    # seeds after it cannot support at r=8.
    _LOCAL_E7 = ["local", "--n", "20000", "--k", "4096", "--eps", "1",
                 "--p", "0.45", "--topology", "ring", "--trials", "8"]

    def test_local_sweeps_the_certified_plan(self, capsys):
        code = main(self._LOCAL_E7 + ["--seed", "8"])
        out = capsys.readouterr().out
        assert code == 0
        assert re.search(r"radius r\s*\|\s*8\n", out)

    def test_local_builds_one_layout_per_probe(self, capsys, tmp_path):
        """The printed plan and both sweeps reuse the last probe's layout,
        and the two sweeps' audits share one engine MIS run."""
        trace = tmp_path / "local.jsonl"
        code = main(self._LOCAL_E7 + ["--seed", "0", "--engine-check", "0.25",
                                      "--trace", str(trace)])
        out = capsys.readouterr().out
        assert code == 0
        radius = int(re.search(r"radius r\s*\|\s*(\d+)", out).group(1))
        spans = [json.loads(line) for line in trace.read_text().splitlines()]
        spans = [e for e in spans if e["event"] == "span"]
        probed = [e["attrs"]["radius"] for e in spans
                  if e["name"] == "local_plane.layout"]
        assert probed == [2 ** i for i in range(1, radius.bit_length())]
        assert sum(e["name"] == "engine.run" for e in spans) == 1
        assert sum(e["name"] == "local_plane.engine_check" for e in spans) == 2

    def test_local_validation_exits_2(self, capsys):
        for extra, needle in (
            (["--trials", "0"], "--trials must be >= 1"),
            (["--radius", "0", "--trials", "5"], "--radius must be >= 1"),
            (["--engine-check", "1.5"], "--engine-check must be in [0, 1]"),
        ):
            base = [a for a in self._LOCAL if a not in ("--radius", "8")] \
                if "--radius" in extra else list(self._LOCAL)
            code = main(base + extra)
            err = capsys.readouterr().err
            assert code == 2
            assert "error:" in err and needle in err

    def test_local_topology_minimum_enforced(self, capsys):
        code = main(["local", "--n", "2000", "--k", "2",
                     "--topology", "ring", "--trials", "5"])
        err = capsys.readouterr().err
        assert code == 2
        assert "needs k >= 3" in err

    def test_local_fast_path_engine_exclusive(self):
        with pytest.raises(SystemExit):
            main(self._LOCAL + ["--trials", "5", "--fast-path", "--engine"])

    def test_demo(self, capsys):
        code = main(["demo", "--n", "20000", "--k", "10000", "--eps", "1.0"])
        out = capsys.readouterr().out
        assert code == 0
        assert "accept" in out or "reject" in out

    def test_bounds(self, capsys):
        code = main(["bounds", "--n", "50000", "--k", "20000"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Thm 1.2" in out and "lower bound" in out

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


class TestTracing:
    def test_trace_writes_jsonl_and_report_renders(self, capsys, tmp_path):
        trace = tmp_path / "trace.jsonl"
        code = main(
            ["robustness", "--n", "200", "--k", "60",
             "--samples-per-node", "64", "--trials", "2",
             "--drop-probs", "0.0", "0.05", "--seed", "2018",
             "--trace", str(trace)]
        )
        capsys.readouterr()
        assert code == 0
        assert trace.exists()
        code = main(["report", str(trace)])
        out = capsys.readouterr().out
        assert code == 0
        assert "route" in out and "fault-plane" in out
        assert "robustness.sweep" in out
        assert "hot phases" in out.lower()

    def test_trace_on_solve_threshold(self, capsys, tmp_path):
        trace = tmp_path / "t.jsonl"
        code = main(["solve-threshold", "--n", "50000", "--k", "20000",
                     "--trace", str(trace)])
        capsys.readouterr()
        assert code == 0
        code = main(["report", str(trace)])
        out = capsys.readouterr().out
        assert code == 0
        assert "solve" in out

    def test_report_on_missing_file_exits_2(self, capsys, tmp_path):
        code = main(["report", str(tmp_path / "nope.jsonl")])
        err = capsys.readouterr().err
        assert code == 2
        assert "error:" in err

    def test_report_on_garbage_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json\n")
        code = main(["report", str(bad)])
        err = capsys.readouterr().err
        assert code == 2
        assert "error:" in err


class TestSmpCommand:
    ARGS = ["smp", "--n-bits", "32", "--trials", "40", "--seed", "0"]

    def test_fast_path_prints_tables(self, capsys):
        code = main(self.ARGS)
        out = capsys.readouterr().out
        assert code == 0
        assert "codeword bits" in out
        assert "smp plane" in out
        assert "error rate" in out

    def test_engine_route_agrees(self, capsys):
        assert main(self.ARGS) == 0
        fast = capsys.readouterr().out
        assert main(self.ARGS + ["--engine"]) == 0
        engine = capsys.readouterr().out
        # Same seeds, same streams: the error-rate tables must match.
        assert fast.split("measured over")[1].splitlines()[1:] == \
            engine.split("measured over")[1].splitlines()[1:]
        assert "scalar protocol" in engine

    def test_engine_check_fraction_accepted(self, capsys):
        code = main(self.ARGS + ["--engine-check", "0.5"])
        assert code == 0
        capsys.readouterr()

    @pytest.mark.parametrize("argv,msg", [
        (["smp", "--trials", "0"], "--trials"),
        (["smp", "--n-bits", "0"], "--n-bits"),
        (["smp", "--delta", "1.5"], "--delta"),
        (["smp", "--tau", "1.0"], "--tau"),
        (["smp", "--engine-check", "2.0"], "--engine-check"),
    ])
    def test_invalid_parameters_exit_2(self, capsys, argv, msg):
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 2
        assert "error:" in err and msg in err

    def test_trace_reports_smp_plane_route(self, capsys, tmp_path):
        trace = tmp_path / "smp.jsonl"
        code = main(self.ARGS + ["--trace", str(trace)])
        capsys.readouterr()
        assert code == 0
        assert main(["report", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "smp-plane" in out
        assert "smp_plane.encode" in out
