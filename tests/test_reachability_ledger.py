"""The reachability ledger stays in step with the source.

``tools/reachability.txt`` holds one row per ``src/repro`` function that no
production entry point reaches (``tools/reachability.py`` measures that, in
minutes, outside tier-1).  Each row is ``path::qualname`` and a verdict:
``keep (x) why``, with ``x`` one of the reasons below, or ``delete``.  These
checks are static, so a rename or deletion that leaves the ledger stale fails
here at once.
"""

import importlib.util
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LEDGER = ROOT / "tools" / "reachability.txt"

#: (a) safety code: an error or failure callback, or input validation;
#: (b) a README-documented CLI flag the roots do not run in full;
#: (c) a caller in an opt-in ``benchmarks/test_*.py`` or ``benchmarks/perf``;
#: (d) an oracle other tests check against;
#: (e) a field a baseline fingerprint reads;
#: (f) a dunder method a protocol needs;
#: (g) a README-named programming-model API a tier-1 correctness test drives;
#: (h) a caller in a test that must pass unmodified, because it guards a
#:     performance or determinism property (``test_gc_quiet.py``)
REASONS = "abcdefgh"

ROW = re.compile(r"(?P<path>\S+)::(?P<qual>\S+) (?P<verdict>keep \((?P<reason>.)\) \S.*|delete)")


def _rows():
    lines = [line for line in LEDGER.read_text().splitlines()
             if line and not line.startswith("#")]
    rows = [ROW.fullmatch(line) for line in lines]
    bad = [line for line, row in zip(lines, rows) if row is None]
    assert not bad, f"rows not of the form 'path::qualname verdict': {bad}"
    return rows


def _tool():
    spec = importlib.util.spec_from_file_location(
        "reachability", ROOT / "tools" / "reachability.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_every_row_names_a_function_that_exists():
    defined = {(p, q) for p, q, _first, _body in _tool().defined_functions()}
    stale = [f"{r['path']}::{r['qual']}" for r in _rows()
             if (r["path"], r["qual"]) not in defined]
    assert not stale, f"ledger rows with no such function in src/repro: {stale}"


def test_every_row_is_listed_once():
    names = [f"{r['path']}::{r['qual']}" for r in _rows()]
    assert len(names) == len(set(names))


def test_every_keep_row_gives_a_known_reason():
    unknown = [r.group(0) for r in _rows()
               if r["reason"] is not None and r["reason"] not in REASONS]
    assert not unknown, f"keep rows whose reason is not one of (a)-(h): {unknown}"


def test_no_delete_row_is_left():
    left = [r.group(0) for r in _rows() if r["verdict"] == "delete"]
    assert not left, f"delete the code of these rows, then the rows: {left}"



def test_a_root_that_records_nothing_fails(monkeypatch, capsys):
    # a hook that fails to load leaves each root exiting 0, recording nothing
    tool = _tool()
    monkeypatch.setattr(tool, "ROOTS", [["-c", "import repro.config"]])
    monkeypatch.setattr(tool, "SUMMARY", [])
    monkeypatch.setattr(tool, "HOOK", "raise RuntimeError('broken hook')\n")
    assert tool.main() == 1
    assert "no record written" in capsys.readouterr().err
