"""Output checks, run between ops and outside the timed interval.

Each check returns a list of problems; an empty list means the op passed.
A check never raises for a wrong answer, so one bad op counts as failed
and the run goes on.
"""

from __future__ import annotations

import json
from fractions import Fraction

# cat and TC (lower, upper) pinned by the test suite and the README.
GOLDEN_BOUNDS = {
    "spheres8": ([3, 3], [5, 5]),
    "borromean": ([3, 3], [4, 5]),
    "even7": ([4, 4], [6, 7]),
    "odd11": ([4, 4], [6, 7]),
}

# Every stress-nil seed gives an isomorphic algebra presented in general
# position (see inputs.py), so the engine finds these values for all of them.
STRESS_EXPECTED = {"cat": [3, 6], "tc": [5, 11], "zcl": 4, "cup_length": 2,
                   "dims": [1, 3, 6, 8]}

# (defined, nonzero) pinned by the tests and the README; None = not pinned.
MASSEY_PINNED = {
    ("spheres8", "a", "a", "b"): (True, True),
    ("spheres8", "b", "a", "b"): (True, True),
    ("borromean", "u", "v", "w"): (True, True),
    ("borromean", "u", "w", "v"): (True, True),
    ("even7", "alpha", "alpha", "beta"): (True, True),
    ("even7", "beta", "beta", "alpha"): (True, None),
    ("even7", "alpha", "alpha", "alpha"): (True, False),
    ("even7", "u", "u", "u"): (False, None),
    ("odd11", "alpha", "alpha", "beta"): (True, None),
}


class Checker:
    """Checks the payloads of one run against pins, replay and repeats."""

    def __init__(self, engine):
        self.engine = engine
        self.replay = engine.bounds.replay_ledger
        self._first = {}       # input key -> (exit code, payload text)
        self._verified = set()

    def repeat(self, key, code, out) -> list:
        """A repeated input must give the same exit code and payload bytes."""
        seen = self._first.setdefault(key, (code, out))
        if seen != (code, out):
            return [f"{key}: output differs from the first run of this input"]
        return []

    def bounds(self, key, code, out, captured, expected) -> list:
        """One `bounds --json` call: exit code, pins, ledger replay, repeat."""
        if code != 0:
            return [f"{key}: bounds exited {code}"]
        problems = self.repeat(key, code, out)
        ledger = json.loads(out)["ledger"]
        for field, want in expected.items():
            if ledger[field] != want:
                problems.append(f"{key}: {field} is {ledger[field]}, expected {want}")
        if len(captured) != 1:
            return problems + [f"{key}: {len(captured)} ledgers built, expected 1"]
        built, ring, kmap = captured[0]
        section = json.loads(json.dumps(self.engine.report.ledger_section(built)))
        if section != ledger:
            problems.append(f"{key}: printed ledger is not the ledger built")
        try:
            self.replay(built, ring, kmap)
        except ValueError as e:
            problems.append(f"{key}: replay failed: {e}")
        return problems

    def massey(self, query, model_arg, code, out) -> list:
        """One `massey --json` call: exit code against the defined flag,
        pins, and once per query an independent recomputation of the value
        from perturbed cocycle representatives."""
        if code not in (0, 1):
            return [f"{query}: massey exited {code}"]
        entry = json.loads(out)["massey"][0]
        problems = self.repeat(query, code, out)
        if entry["defined"] != (code == 0):
            problems.append(f"{query}: exit {code} but defined={entry['defined']}")
        pinned = MASSEY_PINNED.get(query)
        if pinned is not None:
            defined, nonzero = pinned
            if entry["defined"] != defined or (
                    nonzero is not None and entry["nonzero"] != nonzero):
                problems.append(f"{query}: defined={entry['defined']} "
                                f"nonzero={entry['nonzero']}, pinned {pinned}")
        if entry["defined"] and query not in self._verified:
            self._verified.add(query)
            problems += self._massey_value(query, model_arg, entry)
        return problems

    def _massey_value(self, query, model_arg, entry) -> list:
        e = self.engine
        ring = e.cohomology.CohomologyRing(
            e.dga.compile_cdga(e.cli.load_presentation(model_arg)))
        dga = ring.dga
        classes = [ring.named_class(n) for n in query[1:]]
        coset = e.massey.massey_triple(ring, *classes)
        reps = []
        for k, cls in enumerate(classes):
            x = ring.representative(cls)
            below = cls.degree - 1
            if dga.dim(below):
                # adding a coboundary keeps the class and moves the cocycle
                shift = dga.d(dga.basis_cochain(below, k % dga.dim(below)))
                x = x.add(shift.scale(Fraction(k + 2, 3)))
            reps.append(x)
        try:
            _, value = e.massey.massey_value_from_cocycles(ring, *reps)
        except ValueError as err:
            return [f"{query}: recomputation failed: {err}"]
        canonical = [coset.target_degree,
                     [str(v) for v in coset.indeterminacy.reduce(value.coords)]]
        if canonical != entry["canonical"]:
            return [f"{query}: canonical value {entry['canonical']} but "
                    f"perturbed representatives give {canonical}"]
        return []
