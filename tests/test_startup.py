"""What a fresh ``import overq.cli`` loads.  Every CLI request is a new
process, so a heavy standard-library module pulled in at import is paid on
every request.  ``dataclasses`` (which brings ``inspect``) and ``typing``
are never needed, ``fractions`` (which brings ``decimal``) only once a
Fraction appears, which no table request here makes, and ``json`` stays
out until a request needs it: only the JSON outputs and the verify report
order use ``json``.  No timing is measured here."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "data" / "cli_golden.json"
HEAVY = ("dataclasses", "decimal", "fractions", "inspect", "json", "typing")

_TABLE = ["table", "--kind", "pbar", "--t", "3", "--n-max", "12", "--source", "both"]
CSV = _TABLE + ["--format", "csv"]
JSON = _TABLE + ["--format", "json"]

# Runs under ``python -S``, so no site hook loads anything first; the result
# goes out through json only after every module set has been recorded.
PROBE = """
import io, sys
sys.path.insert(0, {src!r})
heavy = {heavy!r}
loaded = lambda: sorted(m for m in heavy if m in sys.modules)
import overq.cli
seen = {{"import": loaded()}}
for name, argv in (("csv", {csv!r}), ("json", {json!r})):
    out, err = io.StringIO(), io.StringIO()
    sys.stdout, sys.stderr = out, err
    try:
        code = overq.cli.main(argv)
    finally:
        sys.stdout, sys.stderr = sys.__stdout__, sys.__stderr__
    seen[name] = loaded()
    seen[name + "_run"] = [code, out.getvalue(), err.getvalue()]
import json
print(json.dumps(seen))
"""


def _probe():
    code = PROBE.format(src=str(ROOT / "src"), heavy=HEAVY, csv=CSV, json=JSON)
    done = subprocess.run(
        [sys.executable, "-S", "-c", code],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def _golden(argv):
    for record in json.loads(GOLDEN.read_text()):
        if record["argv"] == argv:
            return [record["exit"], record["stdout"], record["stderr"]]
    raise KeyError(argv)


def test_import_and_csv_table_load_no_heavy_module():
    seen = _probe()
    assert seen["import"] == []
    assert seen["csv"] == []
    assert seen["csv_run"] == _golden(CSV)
    # The probe does see json once a JSON request has imported it.
    assert seen["json"] == ["json"]
    assert seen["json_run"] == _golden(JSON)
