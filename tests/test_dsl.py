"""Parser and printer tests: round-trips, defaults, located errors."""

from fractions import Fraction

import pytest

from masseytc.cli import main
from masseytc.dga import Generator, PresentationError, normalize_presentation
from masseytc.dsl import ParseError, parse_model
from conftest import golden_models
from masseytc.models import MODEL_SOURCES
from oracles import model_names, print_model


def test_registry_contents():
    assert model_names() == ["borromean", "even7", "odd11", "spheres8"]
    models = golden_models()
    assert set(models) == set(MODEL_SOURCES)
    for name, p in models.items():
        assert p.name == name


def test_golden_fields():
    models = golden_models()
    m = models["spheres8"]
    assert (m.truncation, m.space_dim, m.simply_connected) == (8, 8, True)
    assert [(g.name, g.degree) for g in m.generators] == [("a", 3), ("b", 3), ("z", 5)]
    b = models["borromean"]
    assert (b.truncation, b.space_dim, b.simply_connected) == (2, 2, False)
    assert len(b.generators) == 6
    assert [a for a, _ in b.aliases] == ["u", "v", "w"]
    e = models["even7"]
    assert (e.truncation, e.space_dim) == (8, 7)
    assert [a for a, _ in e.aliases] == ["alpha", "beta", "u", "v", "mu"]
    o = models["odd11"]
    assert (o.truncation, o.space_dim) == (11, 11)


def test_round_trip_golden():
    for src in MODEL_SOURCES.values():
        p = parse_model(src)
        assert parse_model(print_model(p)) == p


def test_round_trip_is_stable():
    p = parse_model(MODEL_SOURCES["even7"])
    once = print_model(p)
    assert print_model(parse_model(once)) == once


def test_defaults():
    p = parse_model("algebra t { truncate 3 generator x degree 3 }")
    assert p.space_dim == 3
    assert p.simply_connected is False
    assert p.differentials == {"x": {}}
    assert p.aliases == ()


def test_poly_normalization():
    # b*a = -a*b for odd generators; coefficients merge
    p = parse_model("""
        algebra t {
          truncate 8
          generator a degree 3
          generator b degree 3
          generator z degree 5
          d z = 2*a*b - 1/2*b*a
        }
    """)
    assert p.differentials["z"] == {(1, 1, 0): Fraction(5, 2)}


def test_poly_zero_and_odd_squares():
    p = parse_model("""
        algebra t {
          truncate 8
          generator a degree 3
          generator z degree 5  # comment here
          d z = 0
        }
    """)
    assert p.differentials["z"] == {}
    q = parse_model("""
        algebra t {
          truncate 4
          generator a degree 1
          generator y degree 1
          d y = a*a
        }
    """)
    assert q.differentials["y"] == {}  # odd square collapses to zero


def test_parse_error_positions():
    with pytest.raises(ParseError) as exc:
        parse_model("algebra t {\n  truncate 3\n  generator x degree 3\n  d x = $\n}")
    assert exc.value.line == 4 and exc.value.col == 9
    assert "line 4, col 9" in str(exc.value)

    with pytest.raises(ParseError) as exc:
        parse_model("algebra t {\n  wibble 3\n}")
    assert exc.value.line == 2
    assert "wibble" in str(exc.value)


@pytest.mark.parametrize("digit", ["\u00b2", "\u0663", "\uff13"])
def test_a_non_ascii_digit_is_a_located_parse_error(tmp_path, capsys, digit):
    # superscript two, Arabic-Indic three, fullwidth three: str.isdigit()
    # admits each, and int() refuses the first; only 0-9 make numbers
    text = f"algebra t {{\n  truncate 3\n  generator a degree {digit}\n}}\n"
    with pytest.raises(ParseError) as exc:
        parse_model(text)
    assert (exc.value.line, exc.value.col) == (3, 22)
    assert repr(digit) in str(exc.value)
    path = tmp_path / "digit.mdl"
    path.write_text(text, encoding="utf-8")
    assert main(["cohomology", str(path)]) == 2
    assert capsys.readouterr().err == (
        f"error: {path}: line 3, col 22: unexpected character {digit!r}\n")


def test_parse_errors():
    with pytest.raises(ParseError, match="missing truncate"):
        parse_model("algebra t { generator x degree 3 }")
    with pytest.raises(ParseError, match="only field Q"):
        parse_model("algebra t { field R truncate 3 }")
    with pytest.raises(ParseError, match="duplicate truncate"):
        parse_model("algebra t { truncate 3 truncate 4 }")
    with pytest.raises(ParseError, match="duplicate generator"):
        parse_model("algebra t { truncate 3 generator x degree 3 generator x degree 2 }")
    with pytest.raises(ParseError, match="duplicate differential"):
        parse_model("""
            algebra t {
              truncate 5
              generator a degree 2
              generator x degree 3
              d x = a*a
              d x = 0
            }
        """)
    with pytest.raises(ParseError, match="constant terms"):
        parse_model("algebra t { truncate 3 generator x degree 2 d x = 5 }")
    with pytest.raises(ParseError, match="expected"):
        parse_model("algebra t { truncate 3 generator x degree }")
    with pytest.raises(ParseError, match="duplicate name"):
        parse_model("""
            algebra t {
              truncate 3
              generator x degree 3
              alias u = x
              alias u = x
            }
        """)


@pytest.mark.parametrize("first, second, col", [
    ("generator x degree 2", "alias x = y", 9),
    ("alias x = y", "generator x degree 2", 13),
], ids=["alias-after-generator", "generator-after-alias"])
def test_an_alias_and_a_generator_cannot_share_a_name(tmp_path, capsys, first, second, col):
    # either order is refused at the second name; an alias declared first
    # used to shadow the later generator, which no name could then reach
    text = f"algebra t {{\n  truncate 4\n  generator y degree 1\n  {first}\n  {second}\n}}\n"
    with pytest.raises(ParseError, match="duplicate name x") as exc:
        parse_model(text)
    assert (exc.value.line, exc.value.col) == (5, col)
    path = tmp_path / "clash.mtc"
    path.write_text(text)
    assert main(["massey", str(path), "x", "x", "x"]) == 2
    assert capsys.readouterr().err == f"error: {path}: line 5, col {col}: duplicate name x\n"


@pytest.mark.parametrize("aliases", [
    [("x", [(1, ["y"])])],
    [("u", [(1, ["y"])]), ("u", [(2, ["y"])])],
], ids=["alias-named-as-a-generator", "two-aliases-of-one-name"])
def test_a_presentation_built_in_python_refuses_a_shared_name(aliases):
    gens = [Generator("y", 1), Generator("x", 2)]
    with pytest.raises(PresentationError, match=f"duplicate name {aliases[-1][0]}"):
        normalize_presentation("t", gens, {}, 4, alias_terms=aliases)


def test_semantic_errors_report_true_degrees():
    with pytest.raises(PresentationError, match="degree 4, got a term of degree 2"):
        parse_model("""
            algebra t {
              truncate 6
              generator a degree 2
              generator x degree 3
              d x = a
            }
        """)
    with pytest.raises(PresentationError, match="unknown generator"):
        parse_model("algebra t { truncate 3 generator x degree 2 d x = q*q }")


def test_printer_formats_fractions_and_signs():
    p = parse_model("""
        algebra t {
          truncate 9
          generator a degree 2
          generator b degree 2
          generator c degree 5
          d c = 1/2*a*a*a - 2*a*b*b
        }
    """)
    text = print_model(p)
    assert "d c = 1/2*a*a*a - 2*a*b*b" in text
    assert parse_model(text) == p
