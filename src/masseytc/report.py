"""Deterministic reports: one payload shape, two renderings.

A payload always carries the same six top-level keys -- model, cohomology,
massey, zcl, weights, ledger -- with None for anything that was not
computed.  All leaves are JSON-native (rationals become strings), except
the weight facts: the weights section holds the ledger's facts, and only
the JSON rendering writes each one out, so the text rendering never pays
for their coordinates.  The JSON rendering sorts keys and writes one
compact line, and nothing in a payload depends on the environment, so
equal inputs give byte-identical output.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .bounds import LOWER_RULES, BoundLedger, WeightFact, stop_weight
from .cohomology import CohClass, CohomologyRing
from .linalg import is_rational
from .massey import MasseyCoset


def _class_json(cls: CohClass) -> list:
    """[degree, coordinates], every coordinate a string, written from the
    class's nonzero pairs."""
    coords = ["0"] * cls.dim
    for i, c in cls.pairs:
        coords[i] = str(c)
    return [cls.degree, coords]


def _jsonify(x):
    """The JSON form of a record, with every coefficient a string.  A class
    goes through :func:`_class_json` and a tuple of scalars is a coordinate
    vector; every other number (a degree, a weight, a bound, a transfer's
    k) sits beside a string or a tuple and stays a number."""
    if isinstance(x, CohClass):
        return _class_json(x)
    if isinstance(x, (tuple, list)):
        if all(map(is_rational, x)):
            return [str(v) for v in x]
        return [_jsonify(v) for v in x]
    if isinstance(x, dict):
        return {str(k): _jsonify(v) for k, v in x.items()}
    return x


def model_section(ring: CohomologyRing) -> dict:
    dga = ring.dga
    return {
        "name": dga.name,
        "truncation": dga.truncation,
        "space_dim": dga.space_dim,
        "simply_connected": dga.simply_connected,
        "total_dim": dga.total_dim(),
    }


def cohomology_section(ring: CohomologyRing) -> dict:
    classes = ring.named_classes()  # generators with nonzero differential have no class
    return {
        "dims": list(ring.dims()),
        "connectivity": ring.connectivity(),
        "cup_length": ring.cup_length(),
        "top_degree": ring.top_nonzero_degree(),
        "basis": {str(k): [ring.class_name(k, i) for i in range(n)]
                  for k, n in enumerate(ring.dims()) if n},
        "named_classes": {n: _class_json(c) for n, c in classes.items()},
        "ring_table": _ring_table(ring, classes),
    }


def _ring_table(ring: CohomologyRing, classes: dict) -> list:
    """Pairwise products of the named classes, flagging truncation losses.

    ``truncated`` marks pairs whose product degree falls outside the model
    window: the zero recorded there is forced by the truncation, not by the
    ring, so ``value`` is left as None rather than claiming a vanishing.
    Each unordered pair is multiplied once: b*a = (-1)^(|a||b|) a*b by
    graded commutativity, and the flag does not depend on the order.
    """
    names = sorted(classes)
    products = {}
    for i, left in enumerate(names):
        a = classes[left]
        for right in names[i:]:
            b = classes[right]
            prod, truncated = products[left, right] = ring.cup_checked(a, b)
            if right != left:
                sign = -1 if (a.degree * b.degree) % 2 else 1
                products[right, left] = prod.scale(sign), truncated
    table = []
    for left in names:
        for right in names:
            prod, truncated = products[left, right]
            table.append({
                "left": left,
                "right": right,
                "degree": classes[left].degree + classes[right].degree,
                "value": None if truncated else _class_json(prod),
                "truncated": truncated,
            })
    return table


def massey_entry(coset: MasseyCoset, label: str) -> dict:
    entry = {
        "label": label,
        "alpha": _class_json(coset.alpha),
        "beta": _class_json(coset.beta),
        "gamma": _class_json(coset.gamma),
        "defined": coset.defined,
        "obstruction": coset.obstruction,
        "value": None,
        "canonical": None,
        "indeterminacy_dim": None,
        "nonzero": None,
    }
    if coset.defined:
        entry["value"] = _class_json(coset.value)
        entry["canonical"] = _class_json(coset.canonical)
        entry["indeterminacy_dim"] = coset.indeterminacy.dim
        entry["nonzero"] = coset.is_nonzero()
    return entry


def massey_section(ring: CohomologyRing, cosets) -> list:
    """Entries for a scan of basis triples, labelled by their classes; the
    ledger section counts the triples a scan leaves undefined."""
    out = []
    for coset in cosets:
        label = "<{}, {}, {}>".format(*(
            ring.class_name(c.degree, c.pairs[0][0])
            for c in (coset.alpha, coset.beta, coset.gamma)))
        out.append(massey_entry(coset, label))
    return out


def zcl_section(zcl: int, witness: tuple, product: CohClass) -> dict:
    """The zcl block; ``witness`` is the chain of classes."""
    return {
        "zcl": zcl,
        "witness": [_class_json(c) for c in witness],
        "product": _class_json(product),
    }


def weights_section(ledger: BoundLedger) -> dict:
    """Both fact pools, as the ledger holds them; see :func:`render_json`."""
    return {"cat": ledger.cat_facts, "tc": ledger.tc_facts}


def ledger_section(ledger: BoundLedger) -> dict:
    """The ledger without its two fact pools, in plain JSON types.  The
    ``massey_stop`` key is written only for a scan that stopped early."""
    section = {
        "model": ledger.model,
        "space_dim": ledger.space_dim,
        "connectivity": ledger.connectivity,
        "dims": list(ledger.dims),
        "tensor_dims": list(ledger.tensor_dims),
        "massey_cap": ledger.massey_cap,
        "massey_undefined": dict(ledger.massey_undefined),
        "cup_length": ledger.cup_length,
        "cup_witness": [_class_json(c) for c in ledger.cup_witness],
        "zcl": ledger.zcl,
        "zcl_witness": [_class_json(c) for c in ledger.zcl_witness],
        "cat": [ledger.cat_lower, ledger.cat_upper],
        "tc": [ledger.tc_lower, ledger.tc_upper],
        "certificates": _jsonify(ledger.certificates),
    }
    if ledger.massey_stop is not None:
        d, weight, ratio, top = ledger.massey_stop
        section["massey_stop"] = {"degree": d, "weight": weight, "ratio": str(ratio), "top": top}
    return section


def build_payload(ring: CohomologyRing, *, massey=None, zcl=None,
                  weights=None, ledger=None) -> dict:
    return {
        "model": model_section(ring),
        "cohomology": cohomology_section(ring),
        "massey": massey,
        "zcl": zcl,
        "weights": weights,
        "ledger": ledger,
    }


def _fact_json(f) -> dict:
    """A weight fact written out: the ``default`` hook of :func:`render_json`."""
    if not isinstance(f, WeightFact):
        raise TypeError(f"{type(f).__name__} is not part of a payload")
    degree, coords = _class_json(f.cls)
    return {"kind": f.kind, "degree": degree, "coords": coords, "weight": f.weight,
            "rule": f.rule, "inputs": _jsonify(f.inputs)}


def render_json(payload: dict) -> str:
    """One line with no whitespace between tokens, then a newline.  With no
    ``indent`` CPython encodes through its C encoder."""
    return json.dumps(payload, separators=(",", ":"), sort_keys=True,
                      default=_fact_json) + "\n"


def _stop_line(led: dict) -> str:
    """Why a bounds report lists no triple above the degree its scan stopped at."""
    s = led["massey_stop"]
    most = stop_weight(s["degree"], Fraction(s["ratio"]), s["top"])
    why = (f"a triple above it adds at most {most} <= {s['weight']}" if most <= s["weight"]
           else f"cat lower meets cat upper {led['cat'][1]}")
    return f"Massey scan stopped at degree {s['degree']}: {why}"


def render_text(payload: dict) -> str:
    lines = []
    m = payload["model"]
    if m is not None:
        sc = "simply connected" if m["simply_connected"] else "not simply connected"
        sd = m["space_dim"] if m["space_dim"] is not None else "unknown"
        lines.append(f"model {m['name']}: truncation {m['truncation']}, "
                     f"space dimension {sd}, {sc}")
    h = payload["cohomology"]
    if h is not None:
        lines.append("H^* dimensions: " + " ".join(str(d) for d in h["dims"]))
        lines.append(f"connectivity {h['connectivity']}, "
                     f"cup length {h['cup_length']}, "
                     f"top degree {h['top_degree']}")
        if h["named_classes"]:
            names = ", ".join(f"{n} (degree {d[0]})"
                              for n, d in sorted(h["named_classes"].items()))
            lines.append("named classes: " + names)
            table = h["ring_table"]
            nz = [e for e in table if e["value"] is not None
                  and any(c != "0" for c in e["value"][1])]
            lines.append("nonzero named products: "
                         + (", ".join(f"{e['left']}*{e['right']}" for e in nz)
                            if nz else "none"))
            hidden = sum(1 for e in table if e["truncated"])
            if hidden:
                lines.append(f"  ({hidden} product(s) land above the "
                             "truncation; their vanishing is not certified)")
    if payload["massey"] is not None:
        lines.append(f"Massey triple products: {len(payload['massey'])}")
        for e in payload["massey"]:
            if not e["defined"]:
                lines.append(f"  {e['label']}: not defined ({e['obstruction']})")
            elif e["nonzero"]:
                lines.append(f"  {e['label']}: defined and nonzero in degree "
                             f"{e['value'][0]}, indeterminacy dimension "
                             f"{e['indeterminacy_dim']}")
            else:
                lines.append(f"  {e['label']}: defined, contains zero")
        led = payload["ledger"]  # a bounds report lists the defined triples, counts the rest
        if led is not None and any(led["massey_undefined"].values()):
            lines.append("  not defined: " + ", ".join(
                f"{n} ({why})" for why, n in led["massey_undefined"].items()))
        if led is not None and "massey_stop" in led:
            lines.append(_stop_line(led))
    z = payload["zcl"]
    if z is not None:
        lines.append(f"zero-divisors cup length {z['zcl']} "
                     f"(witness chain of {len(z['witness'])})")
    w = payload["weights"]
    if w is not None:
        for kind, title in (("cat", "category"), ("tc", "TC")):
            facts = w[kind]
            top = max((f.weight for f in facts), default=0)
            lines.append(f"{title} weight facts: {len(facts)} (max weight {top})")
    led = payload["ledger"]
    if led is not None:
        lines.append(f"cup length {led['cup_length']}, zcl {led['zcl']}")
        lines.append(f"cat lower {led['cat'][0]}, cat upper {led['cat'][1]}")
        lines.append(f"TC lower {led['tc'][0]}, TC upper {led['tc'][1]}")
        lines.append("certificates:")
        for c in led["certificates"]:
            lines.append(f"  {c['rule']} -> {c['kind']} "
                         f"{'>=' if c['rule'] in LOWER_RULES else '<='} {c['bound']}")
    return "\n".join(lines) + "\n"
