"""Coverage for the ``python -m repro.report`` CLI: every subcommand,
``all``, ``trace`` and its flags, and the bad-argument exit paths.

The expensive measurement machinery is monkeypatched with canned
:class:`MeasureResult` objects so the whole matrix runs in milliseconds;
the real figures are exercised by benchmarks/.
"""

import json
import os
import subprocess
import sys

import pytest

from repro import report
from repro.apps.base import MeasureResult
from repro.report import __main__ as cli
from repro.telemetry.trace import Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _fake_result(app_name="hash", backend="icode", static_opt="lcc"):
    r = MeasureResult(app_name, backend, "linear", static_opt)
    r.dynamic_cycles = 1_000
    r.static_cycles = 3_000
    r.codegen_cycles = 20_000
    r.generated_instructions = 40
    r.cycles_per_instruction = 500.0
    r.phase_breakdown = {"closure": 20.0, "emit": 400.0, "link": 5.0,
                         "ir": 60.0, "flowgraph": 10.0, "liveness": 30.0,
                         "intervals": 15.0, "regalloc": 200.0,
                         "translate": 80.0}
    r.dynamic_result = r.static_result = r.expected = 7
    r.correct = True
    r.hot_profile = [
        {"pc": 7, "kind": "trace", "dispatches": 90, "blocks": 4,
         "instructions": 17, "cycles": 5_400},
        {"pc": 3, "kind": "block", "dispatches": 12, "blocks": 1,
         "instructions": 5, "cycles": 96},
    ]
    return r


def _fake_tracer():
    tracer = Tracer()
    with tracer.span("run:fake", cat="spec"):
        tracer.advance(100)
    return tracer


class _FakeUsedOps:
    used_count = 12
    full_size = 4_000
    pruned_size = 400
    reduction_factor = 10.0


@pytest.fixture
def cheap_reports(monkeypatch):
    monkeypatch.setattr(
        "repro.apps.harness.measure",
        lambda app, **kw: _fake_result(app.name, kw.get("backend", "icode"),
                                       kw.get("static_opt", "lcc")))
    monkeypatch.setattr(
        "repro.apps.harness.run_traced",
        lambda app, **kw: _fake_tracer())
    monkeypatch.setattr(
        cli, "_series_results",
        lambda names: {
            name: {f"{b}-{s}": _fake_result(name, b, s)
                   for b, s in cli.SERIES}
            for name in names
        })
    monkeypatch.setattr(
        "repro.apps.table1.table1",
        lambda: {"one small workload": {"vcode": 150.0, "icode": 1_100.0}})
    monkeypatch.setattr(
        "repro.analysis.collect_used_ops", lambda prog: _FakeUsedOps())

    class _FakeTcc:
        def compile(self, source, filename="<source>"):
            return None

    monkeypatch.setattr("repro.core.driver.TccCompiler", _FakeTcc)


@pytest.mark.usefixtures("cheap_reports")
class TestEverySubcommand:
    @pytest.mark.parametrize("name, marker", [
        ("table1", "cycles per generated instruction"),
        ("fig4", "run-time ratio"),
        ("fig5", "cross-over point"),
        ("fig6", "VCODE dynamic compilation cost breakdown"),
        ("fig7", "linear scan (LS) vs graph"),
        ("blur", "xv Blur case study"),
        ("usedops", "ICODE-emitter pruning"),
        ("trace", "Telemetry summary"),
        ("hot", "Hottest execution units"),
        ("cache", "Code cache"),
        ("analysis", "Static analysis"),
    ])
    def test_subcommand_exits_zero_and_renders(self, capsys, name, marker):
        assert cli.main([name]) == 0
        assert marker in capsys.readouterr().out

    def test_all_concatenates_every_report(self, capsys):
        assert cli.main(["all"]) == 0
        out = capsys.readouterr().out
        for marker in ("Table 1", "Figure 4", "Figure 5", "Figure 6",
                       "Figure 7", "Blur", "pruning", "Telemetry",
                       "Hottest", "Code cache"):
            assert marker in out

    def test_fig5_renders_dash_when_never_amortized(self, capsys):
        results = {"hash": {f"{b}-{s}": _fake_result("hash", b, s)
                            for b, s in cli.SERIES}}
        for row in results["hash"].values():
            row.static_cycles = row.dynamic_cycles  # gain <= 0
        text = cli.report_fig5(results)
        assert "-" in text.splitlines()[-1]


class TestBadArguments:
    @pytest.mark.parametrize("argv", [[], ["nonsense"], ["fig99"],
                                      ["slo"]])
    def test_unknown_subcommand_prints_usage_and_fails(self, capsys, argv):
        assert cli.main(argv) == 1
        assert "python -m repro.report" in capsys.readouterr().out

    def test_registry_of_reports_matches_cli(self):
        assert set(cli.REPORTS) == {
            "table1", "fig4", "fig5", "fig6", "fig7", "blur", "usedops",
            "trace", "hot", "cache", "analysis",
        }

    def test_module_runs_without_a_second_copy_of_itself(self):
        """``python -m repro.report`` must not find its own module
        already imported (runpy's RuntimeWarning, an error here)."""
        env = dict(os.environ, PYTHONPATH="src")
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning",
             "-m", "repro.report", "analysis"],
            capture_output=True, text=True, env=env, cwd=ROOT, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert "Static analysis" in proc.stdout


class TestCacheReport:
    SOURCE = """
    int make_adder(int n) {
        int vspec p = param(int, 0);
        int cspec c = `($n + p);
        return (int)compile(c, int);
    }
    """

    def test_cache_report_reflects_live_counters(self, capsys):
        from repro.core.driver import TccCompiler

        report.reset()
        proc = TccCompiler().compile(self.SOURCE).start()
        proc.run("make_adder", 10)
        proc.run("make_adder", 10)   # Tier-1 memo hit
        proc.run("make_adder", 20)   # Tier-2 clone+patch
        assert cli.main(["cache"]) == 0
        out = capsys.readouterr().out
        assert "Code cache" in out
        assert "1 memo hits" in out
        assert "1 template clones" in out

    def test_cache_report_scans_configured_dir(self, tmp_path, monkeypatch,
                                               capsys):
        from repro.core.driver import TccCompiler

        monkeypatch.setenv("REPRO_CODECACHE_DIR", str(tmp_path))
        proc = TccCompiler().compile(self.SOURCE).start()
        proc.run("make_adder", 10)
        proc.codecache.flush()
        assert cli.main(["cache"]) == 0
        out = capsys.readouterr().out
        assert f"disk dir {tmp_path}: 1 entries" in out


class TestHotReport:
    def test_hot_report_ranks_traces(self, cheap_reports, capsys):
        assert cli.main(["hot"]) == 0
        out = capsys.readouterr().out
        assert "trace" in out and "block" in out
        # The trace row (more dispatches) must be ranked first.
        lines = [ln for ln in out.splitlines() if " trace " in ln
                 or " block " in ln]
        assert "trace" in lines[0]

    def test_hot_report_handles_empty_profile(self, cheap_reports,
                                              monkeypatch, capsys):
        empty = _fake_result()
        empty.hot_profile = None
        monkeypatch.setattr("repro.apps.harness.measure",
                            lambda app, **kw: empty)
        assert cli.main(["hot"]) == 0
        assert "no units dispatched" in capsys.readouterr().out


class TestTraceCli:
    """``report trace`` on a real app: one tracer over the whole
    lifecycle, in each output format."""

    def test_summary_to_stdout(self, capsys):
        assert cli.main(["trace", "pow"]) == 0
        out = capsys.readouterr().out
        assert "Telemetry summary" in out
        # One compile() in pow: one compile span, static side included.
        rows = {line.split()[0]: line.split()[1:]
                for line in out.splitlines() if line.strip()}
        assert rows["compile"][0] == "1"
        assert int(rows["static"][0]) > 0

    def test_chrome_output_file(self, tmp_path, capsys):
        path = tmp_path / "pow.json"
        assert cli.main(["trace", "pow", "-f", "chrome",
                         "-o", str(path)]) == 0
        doc = json.loads(path.read_text())
        assert doc["otherData"]["clock"] == "modeled cycles"
        assert any(e.get("ph") == "X" for e in doc["traceEvents"])
        assert f"to {path}" in capsys.readouterr().out

    def test_jsonl_output_file(self, tmp_path, capsys):
        path = tmp_path / "pow.jsonl"
        assert cli.main(["trace", "pow", "-f", "jsonl",
                         "-o", str(path)]) == 0
        lines = path.read_text().strip().splitlines()
        assert all(json.loads(line) for line in lines)

    def test_list_and_unknown_app(self, capsys):
        assert cli.main(["trace", "--list"]) == 0
        assert "blur" in capsys.readouterr().out
        assert cli.main(["trace", "nonsense"]) == 1
        assert "unknown app" in capsys.readouterr().err
