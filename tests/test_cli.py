"""Exit codes, output formats, and error reporting of the command line."""

import argparse
import gc
import hashlib
import json
import os
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

import masseytc
from masseytc import report
from masseytc.cli import (
    build_parser,
    cmd_bounds,
    cmd_cohomology,
    cmd_massey,
    cmd_validate,
    cmd_zcl,
    load_presentation,
    main,
)
from masseytc.cohomology import CohomologyRing
from masseytc.dga import DGA, PairBasis, compile_cdga
from masseytc.massey import OBSTRUCTIONS

# the six top-level keys of every payload, in order
PAYLOAD_KEYS = ("model", "cohomology", "massey", "zcl", "weights", "ledger")

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
    "spheres8": ("e951cc95872be826312e042ae4e3cfe5699562d9bf07984e1104ae17b3521881",
                 "fef3a09f3170acb8053577199b8a624a17f32ea453d3f822dff628152c902aa8"),
    "borromean": ("090cba85467a2ed4d9dff0e23b3aee9113d19b4492220bfe467f67f3ea5ff954",
                  "9f6228e9a780bdb547805d4dddcde7cf034cef9ab96afd8fbed83dae0d0f85d1"),
    "even7": ("a6d863bbba3765b465dbc3cb36ced8aa458f2861fed0233572af6521ef7ce395",
              "b633a2f1a11d17755eba08a03fbbacb141da73bfa0562e0e3778c4b6007d4380"),
    "odd11": ("9440b38771154395d6e0464dc995cbb528d9dee148ae38867926769b2e1800eb",
              "35c7116fb1bef17ce7bc964ce9c2d2905ee5bedd6a48c84fe3f5ed00fe9e02c0"),
}
ZCL_JSON_DIGESTS = {
    "spheres8": "0f31e268d7c743413edf532ea13c76805f5cf5c2189e8181c764ccad401634d4",
    "borromean": "e23b9a40d881702e30d9933c80a1f1ae684d55fcd76df12695643d0e8c4b1c0a",
    "even7": "cc3ff35f73937932cf38a37765a42b356a06d9a91b0a84fa5391fa3fc5d4fe83",
    "odd11": "3a9e8f7b37b20a2e7792dd1043112f2cef313be6de6d77ec59a9c015839af12e",
}

# sha256 of `bounds --json --max-massey-degree 3` and `5` on each golden
# model: the cap bounds the Massey scan, and neither cap may move a byte.
CAPPED_BOUNDS_JSON_DIGESTS = {
    ("spheres8", "3"): "67b492751d12a58e6812d748ae2e525ebca6eada708d3212e897a1e0f64f610b",
    ("spheres8", "5"): "ee2dcb91d6042af2111ed3cd3f9302af4ca06dc5af34a21f2255adcf2bf9d0c1",
    ("borromean", "3"): "090cba85467a2ed4d9dff0e23b3aee9113d19b4492220bfe467f67f3ea5ff954",
    ("borromean", "5"): "090cba85467a2ed4d9dff0e23b3aee9113d19b4492220bfe467f67f3ea5ff954",
    ("even7", "3"): "e619782cef2587822daa66d9a23d1c3f6bd1b9a2a6cc9736ab69612cfd1da1ac",
    ("even7", "5"): "42988e38960166ecd2745d70882b16196e948f7da483afc7e5a83ded8d7ecfee",
    ("odd11", "3"): "15b6a754c97a42f01ebc576da82bf993e1706106008d6138d975390a80966bb8",
    ("odd11", "5"): "b43a52a8a0065fb0b78642bcf9999910e321619283d84e021ea28453bb6c1be7",
}

# The bench stress model for seed 1 (two-step nilpotent, 676-dimensional
# square), with the sha256 of its `bounds --json` and `bounds` text output
# and of its `zcl --json`.
STRESS_NIL_SRC = """\
algebra stressnil {
  field Q
  truncate 3
  space-dim 5
  simply-connected false
  generator x1 degree 1
  generator x2 degree 1
  generator x3 degree 1
  generator y1 degree 1
  generator y2 degree 1
  d y1 = -3*x1*x2 - 1/2*x1*x3 + 3/2*x2*x3
  d y2 = 2*x1*x2 + 3*x1*x3 + 3/2*x2*x3
}
"""
STRESS_NIL_DIGESTS = (
    "16a5bc4bd5f32dabba29e329deab61c7d33279534c78ac543f5402ee36850df9",
    "48e6666c575dd6de3d2fd3410dfbe26e7129c7e4a308bb0cd9e8b5751ed49b96",
    "e4877c75a43dc288bc33c6ca111ebb4a12b8cad7d2e777e098a74fe6c5828cc5",
)


def six_src(n: int) -> str:
    """The model "six": six degree-2 generators a0..a5 and z of degree 3
    with d z = a0*a1, truncated at n, with space-dim n."""
    gens = "".join(f"  generator a{i} degree 2\n" for i in range(6))
    return (f"algebra six {{\n  truncate {n}\n  space-dim {n}\n  simply-connected true\n"
            f"{gens}  generator z degree 3\n  d z = a0*a1\n}}\n")


def nil4_src(n: int) -> str:
    """The model "nil4": the Chevalley-Eilenberg complex of the free 2-step
    nilpotent Lie algebra on 4 generators, x1..x4 and y_ij with
    d y_ij = x_i*x_j, truncated at n, with space-dim its dimension 10."""
    pairs = [(i, j) for i in range(1, 5) for j in range(i + 1, 5)]
    return (f"algebra nil4 {{\n  truncate {n}\n  space-dim 10\n"
            + "".join(f"  generator x{i} degree 1\n" for i in range(1, 5))
            + "".join(f"  generator y{i}{j} degree 1\n" for i, j in pairs)
            + "".join(f"  d y{i}{j} = x{i}*x{j}\n" for i, j in pairs) + "}\n")


# sha256 of the `bounds --json` and `bounds` text output of two larger
# models, whose cup tables read mirrored entries and whose decomposables
# span several degrees, which the golden models barely touch.
SCALE_MODELS = {"six8": six_src(8), "nil4at4": nil4_src(4)}
SCALE_DIGESTS = {
    "six8": ("625482c8aa18dc6cec5cb20a85e7fa02e5200fea4e0a83d99bf352ca4d1b5bab",
             "fe1d236f2135275421ff9b1db3e20cc374679f499179c76f59919e86ff034268"),
    "nil4at4": ("a3930f6b64812ee20149a76cc30331977de6a91b5e745a027f6aa8db34f1eb31",
                "87bbd818f68ab87684eceaef50f85a6de2e62d60e1b3b6f7130766a7d078ce01"),
}

# sha256 of the `cohomology --json` and `cohomology` text output of each
# golden model and of the stress model.
COHOMOLOGY_DIGESTS = {
    "spheres8": ("b67a4c519549f8c39ba8bf30642257756c42fd74736054be38eb87450f24675c",
                 "449f26235233570aaf0d984a10382b181a302c49c43e9f165e85b6f03737f71c"),
    "borromean": ("23e2e2e6ca86835a5d056c0552fcddd72e6d9055bc468cd5b13e0642debef8a3",
                  "5b6d8bae85f85ca7383af7f912c692c7d9e71db4f2587b8721d7adf41b4ca48b"),
    "even7": ("06a5303a9e10048d8e678906f84e432a098073ed9165385824ee601c81168d19",
              "9ecf167936785a014fbb80a14f675e274bbe20bc6c376fbe38441c3a23c62591"),
    "odd11": ("e7fb28f58db10b0fcd97c307dbe32a56c74e3153c8062511137e7f6cce741e3f",
              "adcfb98025fa861bd7fc466a1bc9df5d80640256179de97155fcd2e39c53ed0c"),
    "stressnil": ("f529c4b155cffa82a644347b9b0b493696931abaf038209f66890b9ac9744aa7",
                  "3cf7035d020c337b0ee91b86ac9d34d42c5ac09e91cfb49b12bc6e5858b8bc3a"),
}

# Exit code and sha256 of the `massey --json` output of the golden Massey
# queries: each value is built from the canonical witness solves d mu = ab
# and d lam = bc, so a change to which solution is canonical can move
# these bytes.
MASSEY_JSON_DIGESTS = {
    ("spheres8", "a", "a", "b"):
        (0, "b9f3c2a52bbfef43033375abfb0aef80192ad4e91b1f3d808f5729fc47acf2f4"),
    ("spheres8", "b", "a", "b"):
        (0, "ecb22358f0a0d4c974e1b023373a13b97751d15fb187b45363fbae4bc6fe3e6a"),
    ("borromean", "u", "v", "w"):
        (0, "61d490c1e71398c74f65533700c0a3cc98adb7cf8eb22ffbaf81165032f280f5"),
    ("borromean", "u", "w", "v"):
        (0, "4335e5c5ab44907a30b142211c2ee1824f9dc4fdd07b81a72bcc61bef31e88df"),
    ("even7", "alpha", "alpha", "beta"):
        (0, "315c70234cba4b161d2ea07f619d1d14f0e8d249bdec197df3f54225cf0f5a24"),
    ("even7", "beta", "beta", "alpha"):
        (0, "8723f88a597d8cef1982718a6e5310002ba46d4fe0bf3377e4c915e351491dbb"),
    ("even7", "alpha", "alpha", "alpha"):
        (0, "2fe00889c3a6cca38043e00b2c3242328eb06548880c1175f9c5b856bddb178e"),
    ("even7", "u", "u", "u"):
        (1, "64f9ec506fcaeaa7930dfba4a6397fb8c8d6d28b24eaea2f6895f8f061c8e98c"),
    ("odd11", "alpha", "alpha", "beta"):
        (0, "08fb26d5acd3c5a6602f7ffb6e1f1e29c8353957f2429cf627504095ccbfe059"),
}

# A model whose d^2 fails in four degrees, and the exit code and sha256 of
# the `validate` text and `--json` output of the golden models, of
# BROKEN_D2_SRC, of this model and of the stress model.
MULTI_D2_SRC = """\
algebra twice {
  truncate 6
  generator x degree 1
  generator y degree 2
  generator z degree 3
  d x = y
  d y = x*y
  d z = y*y
}
"""
VALIDATE_DIGESTS = {
    "spheres8": (0, "ae9f5704682aaa7c2cad09ad8d3b837020d7e76b0fa69420fbbba1746f98670d",
                 "59987d52a11cf69420c44a96d0f2cd99556c689add03248f07b1a78f224e8465"),
    "borromean": (0, "cbd833bab61f40184ee68f39aafe60a7f3de97e5fceb40e64f5e05b430d17e24",
                  "f73b12f80a28017972dc8379125fbefff5fddddde8681209b3e7a20692822ab7"),
    "even7": (0, "bd72ff8de8b53479cb0d6bba7ea238020713adfff7c65e938b7f641d8398be46",
              "45a53ae3d4e994b5d46837e2255b8cbeb41646307ed5487eff8a66369e67859d"),
    "odd11": (0, "dc3f2f75f80968f4068a2f8cdb8e375d8130e47e42e6208f5d30423e10fb13bb",
              "1547e8c4f063ec7cfe681c0889035427096c1af775c198bfad79e9321127b435"),
    "broken": (2, "ab4ae48d20ae696f41648e37e36ca871fdefd66d81a0f227dfaef264e84e2c81",
               "8b5be0d273151a2cc8cf08931159a3bcda54f6d01e276cfabf253144a01a5bd8"),
    "twice": (2, "261770f09a7a565c379177fe25b796b0b47b693000c823b00f03b46ef710b3f2",
              "75c120abd6e3d566e656f90c5501f35f250daa618c32905570e439f930c9e834"),
    "stressnil": (0, "011a9718150a1f2f204790e0e684f52d65628440ae91888773310cd89e2e92dc",
                  "f744c4ceb5b17bb6d1900d5ccac96f7bfa0f7ed66b64cdc7bca3a215ac107fba"),
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


@pytest.mark.parametrize("poly", ["0", "x*x"])  # x is odd, so x*x = 0
def test_a_zero_alias_is_refused_by_name(capsys, monkeypatch, tmp_path, poly):
    path = tmp_path / "zero.mtc"
    path.write_text("algebra zero {\n  truncate 4\n  generator x degree 1\n"
                    f"  generator y degree 1\n  alias z = {poly}\n}}\n")
    message = "class 'z' is zero as a polynomial, so it has no degree"
    code, out, err = run(capsys, "massey", str(path), "z", "x", "x")
    assert code == 2 and out == "" and err == f"error: {message}\n"
    ring = CohomologyRing(compile_cdga(load_presentation(str(path))))
    calls = []
    resolve = ring._resolve
    monkeypatch.setattr(ring, "_resolve", lambda name: calls.append(name) or resolve(name))
    for _ in range(2):  # the refusal is remembered, and raised again
        with pytest.raises(ValueError, match=message):
            ring.named_class("z")
    assert calls == ["z"]
    assert sorted(report.cohomology_section(ring)["named_classes"]) == ["x", "y"]


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


def test_unreadable_model_file_is_an_input_error(capsys, tmp_path):
    path = tmp_path / "binary.mtc"
    path.write_bytes(b"\xff\xfe\x00")
    code, out, err = run(capsys, "bounds", str(path))
    assert code == 2 and out == ""
    assert err.startswith(f"error: {path}: cannot read the model file: ")
    assert "codec can't decode" in err


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


def test_bounds_with_a_too_small_space_dim_is_an_input_error(capsys, tmp_path):
    # the ring certifies cat >= 3 (x^2 survives), a 1-dimensional space
    # allows at most 1
    path = tmp_path / "tight.mdl"
    path.write_text("algebra tight {\n  truncate 4\n  space-dim 1\n"
                    "  simply-connected true\n  generator x degree 2\n}\n")
    for extra in ((), ("--json",)):
        code, out, err = run(capsys, "bounds", str(path), *extra)
        assert code == 2 and out == ""
        assert err == ("error: model tight: inconsistent category bounds [3, 1], "
                       "space-dim 1 too small\n")


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


def test_bounds_rejects_a_negative_massey_cap(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bounds", "spheres8", "--max-massey-degree", "-3", "--json"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "--max-massey-degree: expected a non-negative degree, not -3" in err


def test_quiet_suppresses_output(capsys):
    code, out, err = run(capsys, "massey", "spheres8", "a", "a", "b", "--quiet")
    assert code == 0 and out == "" and err == ""
    code, out, err = run(capsys, "massey", "even7", "u", "u", "u", "--quiet")
    assert code == 1 and out == ""


def test_argparse_rejects_wrong_arity():
    with pytest.raises(SystemExit) as exc:
        main(["massey", "spheres8", "a", "b"])
    assert exc.value.code == 2


# stdout and stderr of the parser's own calls, as argparse prints them at
# 80 columns: help, usage and errors do not depend on which subparsers a
# call builds
CLI_TEXTS = [
    (['--help'], 0,
     ('usage: masseytc [-h] {validate,cohomology,massey,zcl,bounds} ...\n'
      '\n'
      'Exact cohomology, Massey products, and certified category/TC bounds for finite\n'
      'rational DGA models.\n'
      '\n'
      'positional arguments:\n'
      '  {validate,cohomology,massey,zcl,bounds}\n'
      '    validate            check the DGA axioms\n'
      '    cohomology          cohomology ring summary\n'
      '    massey              Massey triple product of three named classes\n'
      '    zcl                 zero-divisors cup length\n'
      '    bounds              certified lower/upper bounds for cat and TC\n'
      '\n'
      'options:\n'
      '  -h, --help            show this help message and exit\n'),
     ""),
    (['massey', '--help'], 0,
     ('usage: masseytc massey [-h] [--json] [--quiet] model CLASS CLASS CLASS\n'
      '\n'
      'positional arguments:\n'
      '  model\n'
      '  CLASS\n'
      '\n'
      'options:\n'
      '  -h, --help  show this help message and exit\n'
      '  --json      emit canonical JSON instead of text\n'
      '  --quiet     suppress output; communicate via exit status\n'),
     ""),
    (['bounds', '--help'], 0,
     ('usage: masseytc bounds [-h] [--json] [--quiet] [--max-massey-degree N] model\n'
      '\n'
      'positional arguments:\n'
      '  model\n'
      '\n'
      'options:\n'
      '  -h, --help            show this help message and exit\n'
      '  --json                emit canonical JSON instead of text\n'
      '  --quiet               suppress output; communicate via exit status\n'
      '  --max-massey-degree N\n'
      '                        cap the total degree of scanned triples\n'),
     ""),
    (['frobnicate', 'spheres8'], 2,
     "",
     ('usage: masseytc [-h] {validate,cohomology,massey,zcl,bounds} ...\n'
      "masseytc: error: argument command: invalid choice: 'frobnicate' "
      "(choose from 'validate', 'cohomology', 'massey', 'zcl', 'bounds')\n")),
    ([], 2,
     "",
     ('usage: masseytc [-h] {validate,cohomology,massey,zcl,bounds} ...\n'
      'masseytc: error: the following arguments are required: command\n')),
    (['massey', 'spheres8', 'a', 'b'], 2,
     "",
     ('usage: masseytc massey [-h] [--json] [--quiet] model CLASS CLASS CLASS\n'
      'masseytc massey: error: the following arguments are required: CLASS\n')),
    (['bounds', 'spheres8', '--frob'], 2,
     "",
     ('usage: masseytc [-h] {validate,cohomology,massey,zcl,bounds} ...\n'
      'masseytc: error: unrecognized arguments: --frob\n')),
    (['-h'], 0,
     ('usage: masseytc [-h] {validate,cohomology,massey,zcl,bounds} ...\n'
      '\n'
      'Exact cohomology, Massey products, and certified category/TC bounds for finite\n'
      'rational DGA models.\n'
      '\n'
      'positional arguments:\n'
      '  {validate,cohomology,massey,zcl,bounds}\n'
      '    validate            check the DGA axioms\n'
      '    cohomology          cohomology ring summary\n'
      '    massey              Massey triple product of three named classes\n'
      '    zcl                 zero-divisors cup length\n'
      '    bounds              certified lower/upper bounds for cat and TC\n'
      '\n'
      'options:\n'
      '  -h, --help            show this help message and exit\n'),
     ""),
    # a command's own parser hands every call with arguments left over,
    # and every error, to the texts the full parser prints
    (['massey', 'spheres8', 'a', 'a', 'b', 'c'], 2,
     "",
     ('usage: masseytc [-h] {validate,cohomology,massey,zcl,bounds} ...\n'
      'masseytc: error: unrecognized arguments: c\n')),
    (['bounds', 'spheres8', '--max-massey-degree', 'x'], 2,
     "",
     ('usage: masseytc bounds [-h] [--json] [--quiet] [--max-massey-degree N] model\n'
      "masseytc bounds: error: argument --max-massey-degree: invalid degree value: 'x'\n")),
    (['massey', '--frob', 'spheres8', 'a', 'a', 'b'], 2,
     "",
     ('usage: masseytc [-h] {validate,cohomology,massey,zcl,bounds} ...\n'
      'masseytc: error: unrecognized arguments: --frob\n')),
    (['massey', 'spheres8', 'a', 'a', 'b', '--js', '--frob'], 2,
     "",
     ('usage: masseytc [-h] {validate,cohomology,massey,zcl,bounds} ...\n'
      'masseytc: error: unrecognized arguments: --frob\n')),
]


@pytest.mark.parametrize("argv, code, out, err", CLI_TEXTS,
                         ids=[" ".join(t[0]) or "no-command" for t in CLI_TEXTS])
def test_parser_texts_are_pinned(capsys, monkeypatch, argv, code, out, err):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert (exc.value.code, *capsys.readouterr()) == (code, out, err)


def test_a_command_builds_exactly_one_parser(monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self.prog)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    assert main(["massey", "spheres8", "a", "a", "b", "--quiet"]) == 0
    assert built == ["masseytc massey"]
    built.clear()
    build_parser()
    assert built == ["masseytc"] + [f"masseytc {name}" for name in
                                    ("validate", "cohomology", "massey", "zcl", "bounds")]


@pytest.mark.parametrize("flag", ["--json", None])
def test_a_command_renders_only_what_it_prints(capsys, monkeypatch, flag):
    rendered = []
    for name in ("render_json", "render_text"):
        fn = getattr(report, name)
        monkeypatch.setattr(report, name,
                            lambda p, fn=fn, name=name: rendered.append(name) or fn(p))
    argv = ["massey", "spheres8", "a", "a", "b"] + ([flag] if flag else [])
    assert main(argv) == 0
    assert rendered == ["render_json" if flag else "render_text"]
    assert main(argv + ["--quiet"]) == 0
    assert len(rendered) == 1 and capsys.readouterr().out


@pytest.mark.parametrize("query", sorted(MASSEY_JSON_DIGESTS))
def test_a_cold_massey_query_eliminates_each_differential_once(monkeypatch, query):
    from masseytc import cli, linalg
    tagged, compile_cdga = linalg._tagged_echelon, cli.compile_cdga
    dgas, eliminated = [], []  # keeps every matrix alive, so ids are not reused
    monkeypatch.setattr(linalg, "_tagged_echelon", lambda m: eliminated.append(m) or tagged(m))
    monkeypatch.setattr(cli, "compile_cdga", lambda p: dgas.append(compile_cdga(p)) or dgas[-1])
    main(["massey", *query, "--quiet"])
    (dga,) = dgas
    diffs = {id(m) for m in dga.diff}
    assert eliminated and all(id(m) in diffs for m in eliminated)
    assert len({id(m) for m in eliminated}) == len(eliminated)


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


@pytest.mark.parametrize("query", sorted(CAPPED_BOUNDS_JSON_DIGESTS))
def test_capped_bounds_json_bytes_are_pinned(query):
    name, cap = query
    argv = ["bounds", name, "--max-massey-degree", cap, "--json"]
    code, payload, _ = cmd_bounds(build_parser().parse_args(argv))
    assert code == 0
    assert _sha256(report.render_json(payload)) == CAPPED_BOUNDS_JSON_DIGESTS[query]


@pytest.mark.parametrize("name", ["spheres8", "borromean"])
def test_text_bounds_never_writes_out_a_fact(capsys, monkeypatch, name):
    # the text names only each pool's size and largest weight, so the
    # dense JSON form of the facts is built for --json alone
    written = []
    fact_json = report._fact_json

    def recorded(fact):
        written.append(fact)
        return fact_json(fact)

    monkeypatch.setattr(report, "_fact_json", recorded)
    code, out, _ = run(capsys, "bounds", name)
    assert code == 0 and "TC weight facts: " in out and written == []
    code, out, _ = run(capsys, "bounds", name, "--json")
    weights = json.loads(out)["weights"]
    assert code == 0 and len(written) == len(weights["cat"]) + len(weights["tc"]) > 0


@pytest.mark.parametrize("name", sorted(ZCL_JSON_DIGESTS))
def test_zcl_json_bytes_are_pinned(name):
    code, payload, _ = cmd_zcl(build_parser().parse_args(["zcl", name]))
    assert code == 0
    assert _sha256(report.render_json(payload)) == ZCL_JSON_DIGESTS[name]


def test_stress_model_output_bytes_are_pinned(tmp_path):
    path = tmp_path / "stressnil.mtc"
    path.write_text(STRESS_NIL_SRC)
    code, payload, text = cmd_bounds(build_parser().parse_args(["bounds", str(path)]))
    assert code == 0
    zcode, zpayload, _ = cmd_zcl(build_parser().parse_args(["zcl", str(path)]))
    assert zcode == 0
    assert (_sha256(report.render_json(payload)), _sha256(text),
            _sha256(report.render_json(zpayload))) == STRESS_NIL_DIGESTS


def test_stress_model_json_lists_only_the_defined_triples(tmp_path):
    # 94 of the 108 basis triples are not defined; the payload counts them
    # instead of listing them, which took it from 37,595 bytes to 13,801.
    # The default scan stops at degree 2, the 3 triples that can raise a
    # bound, which takes it to 10,621 bytes
    path = tmp_path / "stressnil.mtc"
    path.write_text(STRESS_NIL_SRC)
    for flags, size, listed, undefined in (
            (["--max-massey-degree", "3"], 13801, 14, (77, 17)),
            ([], 10621, 3, (12, 3))):
        argv = ["bounds", str(path), "--json", *flags]
        code, payload, out = cmd_bounds(build_parser().parse_args(argv))
        assert code == 0 and len(out.encode()) == size
        assert len(payload["massey"]) == listed and all(e["defined"] for e in payload["massey"])
        assert payload["ledger"]["massey_undefined"] == dict(zip(OBSTRUCTIONS, undefined))


@pytest.mark.parametrize("name", sorted(SCALE_DIGESTS))
def test_scale_model_bounds_bytes_are_pinned(tmp_path, name):
    path = tmp_path / f"{name}.mtc"
    path.write_text(SCALE_MODELS[name])
    code, payload, text = cmd_bounds(build_parser().parse_args(["bounds", str(path)]))
    assert code == 0
    assert (_sha256(report.render_json(payload)), _sha256(text)) == SCALE_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(COHOMOLOGY_DIGESTS))
def test_cohomology_output_bytes_are_pinned(tmp_path, name):
    model = name
    if name == "stressnil":
        model = tmp_path / "stressnil.mtc"
        model.write_text(STRESS_NIL_SRC)
    code, payload, text = cmd_cohomology(build_parser().parse_args(["cohomology", str(model)]))
    assert code == 0
    assert (_sha256(report.render_json(payload)), _sha256(text)) == COHOMOLOGY_DIGESTS[name]


@pytest.mark.parametrize("query", sorted(MASSEY_JSON_DIGESTS))
def test_massey_json_bytes_are_pinned(query):
    code, payload, _ = cmd_massey(build_parser().parse_args(["massey", *query]))
    assert (code, _sha256(report.render_json(payload))) == MASSEY_JSON_DIGESTS[query]


@pytest.mark.parametrize("name", sorted(VALIDATE_DIGESTS))
def test_validate_output_bytes_are_pinned(tmp_path, name):
    sources = {"broken": BROKEN_D2_SRC, "twice": MULTI_D2_SRC, "stressnil": STRESS_NIL_SRC}
    model = name
    if name in sources:
        model = tmp_path / f"{name}.mtc"
        model.write_text(sources[name])
    code, _, text = cmd_validate(build_parser().parse_args(["validate", str(model)]))
    jcode, _, out = cmd_validate(build_parser().parse_args(["validate", str(model), "--json"]))
    assert jcode == code
    assert (code, _sha256(text), _sha256(out)) == VALIDATE_DIGESTS[name]

@pytest.mark.parametrize("name", ["spheres8", "borromean"])
def test_bounds_frees_its_rings_without_the_cyclic_collector(capsys, monkeypatch, name):
    # every ring built during a `bounds` call is freed by reference counting
    # when the call returns, so memory follows the work, not the collector
    alive = []
    init = CohomologyRing.__init__

    def tracked(self, *args, **kwargs):
        alive.append(weakref.ref(self))
        init(self, *args, **kwargs)

    monkeypatch.setattr(CohomologyRing, "__init__", tracked)
    gc.disable()
    try:
        assert main(["bounds", name, "--json"]) == 0
        assert len(alive) == 2  # the ring and its square
        assert [r for r in alive if r() is not None] == []
    finally:
        gc.enable()
    capsys.readouterr()


def test_the_squares_lay_out_a_block_per_pair_of_nonzero_degrees(capsys, monkeypatch,
                                                                 tmp_path):
    # a circle truncated at 2000: only degrees 0 and 1 of the model and of
    # its cohomology are nonzero, so each square of the 4000-degree `bounds`
    # run keeps at most 2 x 2 blocks, where a walk over every (k, p) would
    # lay out millions
    built = []
    init = PairBasis.__init__

    def counted(self, n, dims_a, dims_b):
        init(self, n, dims_a, dims_b)
        nonzero = [sum(1 for d in dims if d) for dims in (dims_a, dims_b)]
        built.append((n, len(self.start), nonzero[0] * nonzero[1]))

    monkeypatch.setattr(PairBasis, "__init__", counted)
    assert main(["bounds", _circle(tmp_path, 2000), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["ledger"]["zcl"] == 1
    assert len(built) == 2  # the cochain square and the cohomology square
    for n, blocks, most in built:
        assert n == 4000 and 0 < blocks <= most == 4


def test_bounds_reads_each_ring_dimension_once_per_pass(capsys, monkeypatch, tmp_path):
    # every pass over a ring's degrees reads its dims() once, so `bounds`
    # on a circle calls CohomologyRing.dim as often at truncate 2000 as at 200
    calls = []
    dim = CohomologyRing.dim
    monkeypatch.setattr(CohomologyRing, "dim", lambda self, k: calls.append(k) or dim(self, k))
    counts = []
    for n in (200, 2000):
        calls.clear()
        assert main(["bounds", _circle(tmp_path, n), "--json"]) == 0
        capsys.readouterr()
        counts.append(len(calls))
    assert counts[0] == counts[1]


@pytest.mark.parametrize("source, flags, counts", [
    pytest.param(STRESS_NIL_SRC, (), (38, 3), id="stressnil"),
    pytest.param(STRESS_NIL_SRC, ("--max-massey-degree", "3"), (68, 11),
                 id="stressnil-full-scan"),
    pytest.param(six_src(8), (), (450, 0), id="six8"),
])
def test_bounds_forms_each_product_and_witness_solve_once(capsys, monkeypatch, tmp_path,
                                                          source, flags, counts):
    # a mirrored cup-table entry is read, not formed, and triples sharing a
    # defining product share its solve: forming every entry and solve
    # afresh, the full scans of stressnil and six at truncate 8 made 109 and
    # 1,375 cochain products and 28 and 44 solves.  Every defined triple of
    # six at truncate 8 lands where H = 0, so it solves nothing; solving
    # those made 516 products and 22 solves.  The default scan of stressnil
    # stops at degree 2, with 3 of its 14 defined triples
    calls = {"mul": 0, "solve": 0}
    mul, solve = DGA.mul, CohomologyRing.solve_boundary

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(DGA, "mul", counted("mul", mul))
    monkeypatch.setattr(CohomologyRing, "solve_boundary", counted("solve", solve))
    model = tmp_path / "model.mtc"
    model.write_text(source)
    assert main(["bounds", str(model), "--json", *flags]) == 0
    capsys.readouterr()
    assert (calls["mul"], calls["solve"]) == counts


def _circle(tmp_path, n: int) -> str:
    model = tmp_path / f"circle{n}.mtc"
    model.write_text(f"algebra circle {{\n  truncate {n}\n  space-dim 1\n"
                     "  generator t degree 1\n}\n")
    return str(model)


def test_readme_python_block_runs():
    # the README's API example is executed as written, so it cannot drift
    readme = Path(__file__).resolve().parents[1] / "README.md"
    blocks = readme.read_text().split("```python\n")[1:]
    assert len(blocks) == 1
    exec(compile(blocks[0].split("```")[0], str(readme), "exec"), {})
