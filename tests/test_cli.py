"""Tests for the command-line interface."""

import os
import pathlib
import subprocess
import sys

import pytest

from repro.cli import EXPERIMENTS, build_parser, main
from repro.core import (
    Experiment,
    run_energy_study,
    run_full_study,
    run_op_mapping,
    study_entries,
)
from repro.hw.backend import backend_names
from repro.synapse import CompilerOptions, GraphCompiler
from repro.util.errors import ConfigError

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"
#: the commands that take ``--backend wse``
WSE_READERS = ("ablation-reorder, ablation-fusion, chunked, ablation-serving, "
               "sweep, serve, describe and lint-gate")


def _alone(argv):
    """(exit code, stdout) of ``argv`` run in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        capture_output=True, text=True, env=env,
    )
    return proc.returncode, proc.stdout


class TestParser:
    def test_all_experiments_registered(self):
        parser = build_parser()
        for name in EXPERIMENTS:
            args = parser.parse_args([name])
            assert args.command == name

    def test_study_flags(self):
        args = build_parser().parse_args(["study", "--no-extensions",
                                          "-o", "out.txt"])
        assert args.no_extensions and args.output == "out.txt"

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig99"])


class TestMain:
    def test_repro_error_is_one_line_exit_2(self, capsys):
        assert main(["serve", "--max-batch", "0", "--requests", "5"]) == 2
        err = capsys.readouterr().err
        assert err == "error: max_batch must be >= 1, got 0\n"

    def test_serve_on_wse_backend(self, capsys):
        code = main(["--backend", "wse", "serve", "--requests", "50",
                     "--rate", "10"])
        assert code == 0
        out = capsys.readouterr().out
        assert "50/0/0" in out

    def test_describe(self, capsys):
        assert main(["describe"]) == 0
        out = capsys.readouterr().out
        assert "MME" in out and "HBM" in out

    def test_table1_passes(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out and "[PASS]" in out and "[MISS]" not in out

    def test_table2_passes(self, capsys):
        assert main(["table2"]) == 0
        assert "Speedup" in capsys.readouterr().out

    def test_ablation_fusion(self, capsys):
        assert main(["ablation-fusion"]) == 0

    def test_study_writes_output(self, tmp_path, capsys):
        out_file = tmp_path / "report.txt"
        code = main(["study", "--no-extensions", "-o", str(out_file)])
        assert code == 0
        text = out_file.read_text()
        assert "shape checks" in text
        assert "[MISS]" not in text

    def test_study_artifacts_flag(self, tmp_path, capsys):
        art = tmp_path / "artifacts"
        code = main(["study", "--no-extensions", "--artifacts", str(art)])
        assert code == 0
        assert (art / "report.txt").exists()
        assert (art / "checks.json").exists()

    def test_decode_and_energy_commands(self, capsys):
        assert main(["decode"]) == 0
        assert main(["energy"]) == 0

    def test_scheduler_flag_reaches_the_runtime(self, capsys):
        def fig4_6(*flags):
            code = main([*flags, "fig4-6"])
            return code, capsys.readouterr().out

        default = fig4_6()
        assert default[0] == 0
        assert fig4_6("--scheduler", "inorder") == default
        code, lookahead = fig4_6("--scheduler", "lookahead")
        assert lookahead != default[1]
        # the lookahead Performer layer is A1's reordered run
        assert "Figure 6 (Performer/FAVOR): total 64.04 ms" in lookahead
        # in-order issue is what produces the paper's Fig 6 idle gaps
        assert code == 1 and "[MISS] fig6" in lookahead
        assert main(["--scheduler", "lookahead", "sweep", "--model",
                     "layer:performer", "--policy", "default"]) == 0
        assert "| default | 64.04 " in capsys.readouterr().out

    @pytest.mark.parametrize("experiment", [
        e.name for e in EXPERIMENTS.values() if "wse" in e.backends
    ])
    def test_backend_flag_reaches(self, capsys, experiment):
        """Experiments that run on WSE, several of which build their own
        options, keep ``--backend``."""
        assert main([experiment]) == 0
        default = capsys.readouterr().out
        assert main(["--backend", "wse", experiment]) == 0
        assert capsys.readouterr().out != default

    def test_reorder_ablation_reports_the_matmul_engine(self, capsys):
        """A1's idle column is the backend's matmul engine: the wafer's
        PE grid, not a Gaudi MME it does not have."""
        assert main(["--backend", "wse", "ablation-reorder"]) == 0
        out = capsys.readouterr().out
        assert "| PE idle" in out and "MME" not in out
        assert main(["ablation-reorder"]) == 0
        assert "| MME idle" in capsys.readouterr().out

    def test_infeasible_layout_grid_is_a_typed_error(self, capsys):
        """A16 with no layout fitting the budget: one error line, exit 2."""
        assert main(["--hbm-budget", "0.125", "ablation-parallel"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: every candidate layout for gpt")
        assert err.count("\n") == 1 and "Traceback" not in err


class TestTypedErrors:
    """Bad flags and option values fail at the boundary: exit 2, one
    ``error:`` line, never a traceback."""

    @pytest.mark.parametrize("argv, message", [
        (["sweep", "--model", "gpt", "--tp", "0"], "tp/pp must be >= 1"),
        (["sweep", "--model", "gpt", "--auto-layout", "--tp", "2"],
         "--auto-layout already picks tp/pp"),
        (["sweep", "--model", "gpt", "--card", "8", "--boxes", "2",
          "--backend", "wse"], "models a single device"),
        (["--bucket-mb", "-5", "ablation-comm"], "bucket_mb must be > 0"),
        (["serve", "--rate", "nan", "--requests", "10"],
         "arrival_rate_per_s must be finite"),
        (["--cards", "0", "scaling"], "--cards must be >= 1, got 0"),
        (["--cards", "-2", "scaling"], "--cards must be >= 1, got -2"),
        (["sweep", "--model", "gpt", "--batch", "0"],
         "--batch must be >= 1"),
        (["sweep", "--model", "gpt", "--seq-len", "0"],
         "--seq-len must be >= 1"),
        (["--cards", "2", "fig8"],
         "--cards only applies to scaling and ablation-comm, not fig8"),
        (["--cards", "2", "study"],
         "--cards only applies to scaling and ablation-comm, not study"),
        (["--backend", "wse", "table1"],
         f"--backend wse only applies to {WSE_READERS}, not table1"),
        (["--backend", "wse", "ablation-overlap"],
         f"--backend wse only applies to {WSE_READERS}, not ablation-overlap"),
        (["--backend", "wse", "energy"],
         f"--backend wse only applies to {WSE_READERS}, not energy"),
        *(
            ([f"--hbm-budget={typed}", "fig8"],
             "--hbm-budget must be a finite number of GiB of at least one "
             f"byte, got {typed}")
            for typed in ("nan", "inf", "-inf", "1e-10", "-1", "0")
        ),
        # a signed value that argparse would take for an option
        *(
            (["--hbm-budget", typed, "fig8"],
             "--hbm-budget must be a finite number of GiB of at least one "
             f"byte, got {shown}")
            for typed, shown in (("-inf", "-inf"), ("-1e-3", "-0.001"))
        ),
        (["--bucket-mb", "-1e-3", "fig8"], "bucket_mb must be > 0"),
        (["--jobs", "0", "fig8"], "--jobs must be >= 1, got 0"),
        (["--jobs", "-1", "fig8"], "--jobs must be >= 1, got -1"),
        (["--jobs", "2", "fig8"],
         "--jobs only applies to scaling, ablation-comm, study, sweep and "
         "serve, not fig8"),
        (["--backend", "wse", "study"],
         f"--backend wse only applies to {WSE_READERS}, not study"),
        (["--backend", "wse", "profile-self", "scaling"],
         f"--backend wse only applies to {WSE_READERS}, not scaling"),
    ])
    def test_bad_flags_exit_2(self, capsys, argv, message):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err

    @pytest.mark.parametrize("field, value", [
        ("recompile_penalty_us", -2500.0),
        ("recompile_penalty_us", float("inf")),
        ("recompile_penalty_us", float("nan")),
        ("bucket_mb", 0.0),
        ("bucket_mb", -5.0),
        ("tp", 0),
        ("pp", 0),
        ("microbatches", 0),
        ("tpc_slice_min_us", -1.0),
        ("hbm_budget", 0),
        ("attention_window", 0),
    ])
    def test_compiler_options_reject_bad_values(self, field, value):
        with pytest.raises(ConfigError, match=field):
            CompilerOptions(**{field: value})

    def test_compiler_options_accept_boundary_values(self):
        opts = CompilerOptions(
            recompile_penalty_us=0.0, tpc_slice_min_us=0.0, hbm_budget=1,
            tp=1, pp=1, microbatches=1, attention_window=1,
        )
        assert opts.recompile_penalty_us == 0.0


class TestExperimentTable:
    """Every record x cross-cutting flag either runs on its own checks
    or is refused up front: exit 2, one ``error:`` line, no runner
    call and no compile."""

    @pytest.mark.parametrize("flag, value", [
        ("backend", "wse"), ("cards", "2"), ("jobs", "2"),
    ])
    @pytest.mark.parametrize("name", list(EXPERIMENTS))
    def test_walk(self, name, flag, value, capsys, monkeypatch):
        calls = {"run": 0, "compile": 0}
        run, compile_ = Experiment.__call__, GraphCompiler.compile

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(Experiment, "__call__", counted("run", run))
        monkeypatch.setattr(GraphCompiler, "compile",
                            counted("compile", compile_))
        record = EXPERIMENTS[name]
        honoured = value in record.backends if flag == "backend" \
            else flag in record.reads
        code = main([f"--{flag}", value, name])
        err = capsys.readouterr().err
        if honoured:
            assert code in (0, 1) and calls["run"] == 1
        else:
            assert code == 2 and calls == {"run": 0, "compile": 0}
            assert err.startswith("error: ") and err.count("\n") == 1
            assert f"--{flag}" in err and name in err

    def test_study_sections_follow_the_table(self, full_study):
        titles = [title for title, _ in full_study[0].sections]
        assert titles == [e.title for e in study_entries()] + ["recipe cache"]

    def test_library_call_refuses_an_unlisted_backend(self, monkeypatch):
        monkeypatch.setattr(GraphCompiler, "compile", None)
        with pytest.raises(ConfigError, match="table1 runs on gaudi, not"):
            run_full_study(CompilerOptions(backend="wse"))
        with pytest.raises(ConfigError, match="energy runs on gaudi, not"):
            EXPERIMENTS["energy"](CompilerOptions(backend="wse"))

    @pytest.mark.parametrize("runner, what", [
        (run_energy_study, "the energy study"),
        (run_op_mapping, "the Table 1 op mapping"),
    ])
    def test_direct_call_refuses_an_unlisted_backend(
        self, monkeypatch, runner, what
    ):
        """Called without its record, a Gaudi-calibrated runner makes
        the same check before any compile."""
        monkeypatch.setattr(GraphCompiler, "compile", None)
        with pytest.raises(
            ConfigError, match=f"{what} runs on gaudi, not backend 'wse'"
        ):
            runner(CompilerOptions(backend="wse"))

    def test_records_name_known_flags_and_backends(self):
        with pytest.raises(ConfigError, match="unknown global flag"):
            Experiment("x", "X", lambda options: None, reads=("boxes",))
        for record in EXPERIMENTS.values():
            assert record.backends and "gaudi" in record.backends
            assert set(record.backends) <= set(backend_names())


class TestReentrancy:
    """Invocations in one process behave as they do in a fresh one."""

    @pytest.mark.parametrize("first, second", [
        (["--hbm-budget", "8", "describe"], ["fig4-6"]),
        (["--no-hbm-contention", "--cards", "2", "--jobs", "2", "scaling"],
         ["scaling"]),
        (["--scheduler", "lookahead", "--recipe-cache-dir", "{tmp}",
          "sweep", "--model", "layer:performer", "--policy", "default"],
         ["sweep", "--model", "layer:performer", "--policy", "default"]),
        (["study", "--no-extensions"], ["study", "--no-extensions"]),
    ])
    def test_pair_matches_fresh_processes(
        self, first, second, capsys, tmp_path
    ):
        def run(argv, where, how):
            argv = [a.replace("{tmp}", str(tmp_path / where)) for a in argv]
            return how(argv)

        def in_process(argv):
            code = main(argv)
            return code, capsys.readouterr().out

        together = [run(argv, "a", in_process) for argv in (first, second)]
        assert together == [run(argv, "b", _alone) for argv in (first, second)]
