"""Smoke tests for the CLI entry points and the example scripts."""

import argparse
import importlib
import re
import runpy
import shlex
import sys
import tomllib
from pathlib import Path

import pytest

from repro.apps.jacobi3d import driver as jacobi_driver
from repro.apps.osu import runner as osu_runner
from repro.apps.shuffle import driver as shuffle_driver
from repro.bench import figures

ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = ROOT / "examples"


class TestOsuCli:
    def test_latency_output(self, capsys):
        osu_runner.main(["latency", "charm", "--max-size", "1024"])
        out = capsys.readouterr().out
        assert "OSU latency: charm-D" in out
        assert "1K" in out

    def test_bandwidth_host_staging(self, capsys):
        osu_runner.main(
            ["bandwidth", "openmpi", "--host-staging", "--max-size", "256",
             "--placement", "inter"]
        )
        out = capsys.readouterr().out
        assert "openmpi-H (inter-node)" in out

    def test_bad_model_rejected(self):
        with pytest.raises(SystemExit):
            osu_runner.main(["latency", "mvapich"])


class TestJacobiCli:
    def test_runs_and_prints(self, capsys):
        jacobi_driver.main(["charm", "--nodes", "1", "--iters", "2"])
        out = capsys.readouterr().out
        assert "overall time per iteration" in out
        assert "Jacobi3D charm-D" in out

    def test_host_staging_flag(self, capsys):
        jacobi_driver.main(["ampi", "--nodes", "1", "--iters", "2",
                            "--host-staging"])
        assert "ampi-H" in capsys.readouterr().out


class TestShuffleCli:
    def test_runs_and_prints(self, capsys):
        shuffle_driver.main(["ampi", "--nodes", "1", "--rounds", "2"])
        out = capsys.readouterr().out
        assert "shuffle ampi [pool]" in out
        assert "bandwidth" in out

    def test_ablation_prints_speedup(self, capsys):
        shuffle_driver.main(
            ["charm4py", "--nodes", "1", "--rounds", "2", "--ablation"])
        out = capsys.readouterr().out
        assert "pool speedup" in out

    def test_bad_model_rejected(self):
        with pytest.raises(SystemExit):
            shuffle_driver.main(["mvapich"])


class TestOverrideOption:
    def test_declared_once_and_taken_by_all_four_clis(self):
        declared = [p for p in (ROOT / "src").rglob("*.py")
                    if '"--override"' in p.read_text()]
        assert [p.name for p in declared] == ["config.py"]
        for command in ("repro-osu latency charm", "repro-jacobi3d charm",
                        "repro-shuffle", "repro-baseline check"):
            _parse_only(command + " --override seed=1")

    def test_shuffle_demo_defaults_then_user_override(self, capsys):
        shuffle_driver.main(["ampi", "--nodes", "1", "--rounds", "1",
                             "--override", "memory.allocator=direct"])
        assert "shuffle ampi [direct]" in capsys.readouterr().out

    def test_osu_multirail_by_override(self, capsys):
        osu_runner.main(["bandwidth", "ampi", "--max-size", "64",
                         "--override", "multirail.enabled=true"])
        assert "+multirail" in capsys.readouterr().out

    def test_bad_override_names_the_valid_fields(self):
        with pytest.raises(ValueError, match="valid fields"):
            jacobi_driver.main(["charm", "--override", "ucx.gdrcopy=false"])


def _parse_only(command: str) -> None:
    """Run ``command`` (a ``repro-*`` line) through its console script's
    argument parser and nothing else: ``parse_args`` returns into an
    exception, so no simulation starts; a line that does not parse exits."""
    scripts = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["scripts"]
    script, *argv = shlex.split(command, comments=True)
    module, _, func = scripts[script].partition(":")

    class Parsed(Exception):
        pass

    real = argparse.ArgumentParser.parse_args

    def parse_then_stop(self, args=None, namespace=None):
        real(self, args, namespace)
        raise Parsed

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(argparse.ArgumentParser, "parse_args", parse_then_stop)
        with pytest.raises(Parsed):
            getattr(importlib.import_module(module), func)(argv)


def test_readme_command_lines_parse():
    text = (ROOT / "README.md").read_text().replace("\\\n", " ")
    commands = [line for block in re.findall(r"```bash\n(.*?)```", text, flags=re.S)
                for line in block.splitlines() if line.startswith("repro-")]
    assert len(commands) > 15
    for command in commands:
        _parse_only(command)


class TestFiguresCli:
    def test_single_target(self, capsys):
        figures.main(["anatomy"])
        out = capsys.readouterr().out
        assert "AMPI overhead anatomy" in out

    def test_quick_flag(self, capsys):
        figures.main(["ablation-gpudirect", "--quick"])
        assert "rendezvous lane" in capsys.readouterr().out

    def test_unknown_target(self):
        with pytest.raises(SystemExit):
            figures.main(["fig99"])


class TestExamples:
    #: lines an example's output must contain, beyond running to the end
    EXPECT = {
        "quickstart": ["GPU data from 'sender-chare' arrived", "device sends: 1"],
        "ampi_cuda_aware": ["global residual", "finished at"],
    }

    @pytest.mark.parametrize("path", sorted(EXAMPLES.glob("*.py")),
                             ids=lambda p: p.stem)
    def test_runs_as_main(self, path, tmp_path, monkeypatch, capsys):
        # every example, as a user runs it; whatever it writes lands in
        # tmp_path (observability.py takes its output path as argv[1])
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(sys, "argv", [str(path), str(tmp_path / "out.json")])
        runpy.run_path(str(path), run_name="__main__")
        out = capsys.readouterr().out
        assert out
        for line in self.EXPECT.get(path.stem, []):
            assert line in out

    def test_jacobi3d_scaling_importable(self):
        # only the functional-verification part (the sweep is exercised by
        # the benchmarks); importing must not execute anything heavy
        mod = runpy.run_path(str(EXAMPLES / "jacobi3d_scaling.py"))
        mod["verify_small_grid"]()
