"""Exit codes, output formats, and error reporting of the command line."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import masseytc
from masseytc import report
from masseytc.cli import build_parser, cmd_bounds, cmd_zcl, main
from masseytc.report import PAYLOAD_KEYS

S2_FILE_SRC = """\
algebra s2 {
  truncate 4
  space-dim 2
  simply-connected true
  generator a degree 2
  generator x degree 3
  d x = a*a
}
"""

BROKEN_D2_SRC = """\
algebra broken {
  field Q
  truncate 4
  generator x degree 1
  generator y degree 2
  d x = y
  d y = x*y
}
"""


# sha256 of the `bounds --json` and `bounds` text output of each golden
# model, and of `zcl --json`: changes to how the reports are computed must
# leave their bytes alone.
BOUNDS_DIGESTS = {
    "spheres8": ("10547667bffb9c85f3a7fe0bc0d5a5ed0da400f801659722e456c4f5ed118935",
                 "4f9eb46bff4d77741158e39a53c7595735cd863260fb4df928eaf4d381871761"),
    "borromean": ("f26e2c3b962d17776cb2b077d21808f50d5fb39f728bfdd4d00fbbf39dec68e3",
                  "266f66b3be84934e115ad3f3ac275e7ff760a125c8fc3109104e3ac34c59bb85"),
    "even7": ("ed04c0825c9990f79d41df8a381992db04f7d035153efb58ae9c8ee03e721cee",
              "5eaa78b9cb067ed19c1d49e7d182644bb835024fd444d010f19e48d8c1adfcf3"),
    "odd11": ("a7781b8ad81cb35cac72359d40d473fe9d73b190515d903fcc763917fd444b6f",
              "5a14b7363ceb43f17b20a8d018f05d724ffd5a0646a5ba8daf1088ab48f99a42"),
}
ZCL_JSON_DIGESTS = {
    "spheres8": "3b8dafe83ea5f58a1e59bacd2a51c63352a44e62fbea6bede157c67863c4bfa5",
    "odd11": "01c494ee26013ea5f4d6c38417cddeda1dd4357189b5be46d6b0e24c9919ce48",
}


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cohomology_text(capsys):
    code, out, err = run(capsys, "cohomology", "spheres8")
    assert code == 0 and err == ""
    assert "H^* dimensions: 1 0 0 2 0 0 0 0 2" in out
    assert "named classes: a (degree 3), b (degree 3)" in out


def test_cohomology_json_payload_shape(capsys):
    code, out, _ = run(capsys, "cohomology", "spheres8", "--json")
    assert code == 0
    payload = json.loads(out)
    assert set(payload.keys()) == set(PAYLOAD_KEYS)
    for key in ("massey", "zcl", "weights", "ledger"):
        assert payload[key] is None
    assert payload["cohomology"]["dims"] == [1, 0, 0, 2, 0, 0, 0, 0, 2]


def test_massey_defined_nonzero(capsys):
    code, out, _ = run(capsys, "massey", "spheres8", "a", "a", "b")
    assert code == 0
    assert "<a, a, b>: defined and nonzero in degree 8" in out


def test_massey_contains_zero_still_succeeds(capsys):
    code, out, _ = run(capsys, "massey", "even7", "alpha", "alpha", "alpha")
    assert code == 0
    assert "defined, contains zero" in out


def test_massey_undefined_is_a_computation_failure(capsys):
    code, out, _ = run(capsys, "massey", "even7", "u", "u", "u")
    assert code == 1
    assert "not defined (target degree 14 exceeds truncation 8)" in out


def test_massey_undefined_json_carries_obstruction(capsys):
    code, out, _ = run(capsys, "massey", "even7", "u", "u", "u", "--json")
    assert code == 1
    entry = json.loads(out)["massey"][0]
    assert entry["defined"] is False
    assert entry["value"] is None


def test_massey_unknown_class_name(capsys):
    code, out, err = run(capsys, "massey", "even7", "nope", "u", "u")
    assert code == 2 and out == ""
    assert "unknown class name 'nope'" in err


def test_unknown_model(capsys):
    code, _, err = run(capsys, "cohomology", "definitely-not-a-model")
    assert code == 2
    assert "neither a built-in model" in err


def test_validate_good_model(capsys):
    code, out, _ = run(capsys, "validate", "borromean")
    assert code == 0
    assert "all axioms hold" in out


def test_validate_broken_differential(capsys, tmp_path):
    path = tmp_path / "broken.dga"
    path.write_text(BROKEN_D2_SRC)
    code, out, _ = run(capsys, "validate", str(path))
    assert code == 2
    assert "d-squared" in out


def test_validate_broken_json(capsys, tmp_path):
    path = tmp_path / "broken.dga"
    path.write_text(BROKEN_D2_SRC)
    code, out, _ = run(capsys, "validate", str(path), "--json")
    assert code == 2
    payload = json.loads(out)
    assert payload["valid"] is False
    assert any(v["axiom"] == "d-squared" for v in payload["violations"])


def test_compiling_a_broken_model_fails_validation(capsys, tmp_path):
    path = tmp_path / "broken.dga"
    path.write_text(BROKEN_D2_SRC)
    code, out, err = run(capsys, "cohomology", str(path))
    assert code == 2 and out == ""
    assert "d^2" in err


def test_parse_error_reports_position(capsys, tmp_path):
    path = tmp_path / "bad.dga"
    path.write_text("algebra bad {\n  truncate 3\n  generator x degree one\n}\n")
    code, out, err = run(capsys, "validate", str(path))
    assert code == 2 and out == ""
    assert "line 3, col" in err
    assert str(path) in err


def test_zcl_command(capsys):
    code, out, _ = run(capsys, "zcl", "spheres8")
    assert code == 0
    assert "zero-divisors cup length 2" in out


def test_bounds_on_a_file_model(capsys, tmp_path):
    path = tmp_path / "s2.dga"
    path.write_text(S2_FILE_SRC)
    code, out, _ = run(capsys, "bounds", str(path))
    assert code == 0
    assert "cat lower 2, cat upper 2" in out
    assert "TC lower 3, TC upper 3" in out


def test_bounds_json_is_byte_identical_across_runs(capsys):
    _, first, _ = run(capsys, "bounds", "spheres8", "--json")
    _, second, _ = run(capsys, "bounds", "spheres8", "--json")
    assert first == second
    ledger = json.loads(first)["ledger"]
    assert ledger["cat"] == [3, 3] and ledger["tc"] == [5, 5]


def test_bounds_massey_cap_flag(capsys):
    code, out, _ = run(capsys, "bounds", "spheres8", "--max-massey-degree", "2",
                       "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["ledger"]["massey_cap"] == 2
    assert payload["massey"] == []  # no triples fit below total degree 2


def test_quiet_suppresses_output(capsys):
    code, out, err = run(capsys, "massey", "spheres8", "a", "a", "b", "--quiet")
    assert code == 0 and out == "" and err == ""
    code, out, err = run(capsys, "massey", "even7", "u", "u", "u", "--quiet")
    assert code == 1 and out == ""


def test_argparse_rejects_wrong_arity():
    with pytest.raises(SystemExit) as exc:
        main(["massey", "spheres8", "a", "b"])
    assert exc.value.code == 2


def test_module_entry_point():
    # the child process imports the same package as the tests
    src = str(Path(masseytc.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "masseytc.cli", "validate", "even7"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0
    assert "all axioms hold" in proc.stdout


@pytest.mark.parametrize("name", sorted(BOUNDS_DIGESTS))
def test_bounds_output_bytes_are_pinned(name):
    code, payload, text = cmd_bounds(build_parser().parse_args(["bounds", name]))
    assert code == 0
    assert (_sha256(report.render_json(payload)), _sha256(text)) == BOUNDS_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(ZCL_JSON_DIGESTS))
def test_zcl_json_bytes_are_pinned(name):
    code, payload, _ = cmd_zcl(build_parser().parse_args(["zcl", name]))
    assert code == 0
    assert _sha256(report.render_json(payload)) == ZCL_JSON_DIGESTS[name]
