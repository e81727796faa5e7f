"""Byte-identity of fragment synthesis and NPN canonicalization.

``data/synthesis_golden.json`` holds the outputs of the object-based
implementation (``Cube``/``Expr`` all the way down, object-dtype NPN
scoring) as it stood at commit a529a5f, for seeded tables of 1 to 10
inputs: the ISOP cube list, the factored form, the refactoring fragment and
the NPN canonical form with its transform (values whose JSON exceeds
``INLINE_LIMIT`` characters are stored as a sha256 digest of that JSON, which
keeps the file small without weakening the comparison).  The current
implementation must reproduce every entry exactly — the same cubes in the
same order, the same trees, the same fragment nodes — because replacement
structures decide which nodes a pass rewrites, and so every downstream
network.

Re-recording is only legitimate when the output changes on purpose::

    PYTHONPATH=src python tests/synth/test_synthesis_golden.py --record
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path

import pytest

from repro.aig.npn import npn_canonical
from repro.aig.truth import cached_table_var, table_mask
from repro.synth.factor import factor_cover, factor_truth_table
from repro.synth.fragment import Fragment
from repro.synth.isop import isop, isop_cover
from repro.synth.refactor import refactor_fragment

GOLDEN = Path(__file__).parent / "data" / "synthesis_golden.json"

MAX_VARS = 10
RANDOM_TABLES = 30
DONT_CARE_TABLES = 8
NPN_TABLES = 300
INLINE_LIMIT = 400


def golden_tables(num_vars: int) -> list:
    """Constant, single-variable, parity and ~30 seeded random tables."""
    mask = table_mask(num_vars)
    parity = 0
    for var in range(num_vars):
        parity ^= cached_table_var(var, num_vars)
    tables = [0, mask, parity, parity ^ mask]
    for var in range(num_vars):
        tables += [cached_table_var(var, num_vars), cached_table_var(var, num_vars) ^ mask]
    rng = random.Random(1000 + num_vars)
    for index in range(RANDOM_TABLES):
        table = rng.getrandbits(1 << num_vars)
        if index % 3 == 2:
            # Sparse functions: closer to the cone functions passes meet.
            table &= rng.getrandbits(1 << num_vars)
        tables.append(table)
    return list(dict.fromkeys(tables))


def dont_care_pairs(num_vars: int) -> list:
    """Seeded ``(lower, upper)`` bounds of incompletely specified functions."""
    rng = random.Random(2000 + num_vars)
    pairs = []
    for _ in range(DONT_CARE_TABLES):
        table = rng.getrandbits(1 << num_vars)
        pairs.append((table & rng.getrandbits(1 << num_vars), table | rng.getrandbits(1 << num_vars)))
    return pairs


def npn_tables() -> list:
    rng = random.Random(3000)
    return [rng.getrandbits(16) for _ in range(NPN_TABLES)]


def _pack(value):
    """``value`` itself, or the sha256 digest of its JSON when that is long."""
    text = json.dumps(value, separators=(",", ":"))
    if len(text) <= INLINE_LIMIT:
        return value
    return "sha256:" + hashlib.sha256(text.encode()).hexdigest()


def _cubes(cover):
    return _pack([bit for cube in cover for bit in (cube.pos, cube.neg)])


def _nodes(fragment: Fragment):
    return _pack([literal for pair in fragment.nodes for literal in pair])


def record() -> dict:
    """Compute the golden data with the implementation on ``sys.path``."""
    functions = []
    for num_vars in range(1, MAX_VARS + 1):
        for table in golden_tables(num_vars):
            cover = isop_cover(table, num_vars)
            fragment = refactor_fragment(table, num_vars)
            functions.append({
                "num_vars": num_vars,
                "table": hex(table),
                "cubes": _cubes(cover),
                "factored": _pack(str(factor_cover(cover))),
                "nodes": _nodes(fragment),
                "output": fragment.output,
            })
    dont_cares = [
        {"num_vars": num_vars, "lower": hex(lower), "upper": hex(upper),
         "cubes": _cubes(isop(lower, upper, num_vars))}
        for num_vars in range(1, MAX_VARS + 1)
        for lower, upper in dont_care_pairs(num_vars)
    ]
    npn = []
    for table in npn_tables():
        canonical, transform = npn_canonical(table, 4)
        npn.append([table, canonical, list(transform.permutation),
                    [int(bit) for bit in transform.input_negations], int(transform.output_negation)])
    return {"functions": functions, "dont_cares": dont_cares, "npn": npn}


def _golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_golden_covers_the_declared_tables():
    golden = _golden()
    recorded = [(entry["num_vars"], int(entry["table"], 16)) for entry in golden["functions"]]
    assert recorded == [(n, t) for n in range(1, MAX_VARS + 1) for t in golden_tables(n)]
    assert [row[0] for row in golden["npn"]] == npn_tables()


@pytest.mark.parametrize("num_vars", range(1, MAX_VARS + 1))
def test_isop_factor_and_fragment_match_golden(num_vars):
    for entry in _golden()["functions"]:
        if entry["num_vars"] != num_vars:
            continue
        table = int(entry["table"], 16)
        cover = isop_cover(table, num_vars)
        assert _cubes(cover) == entry["cubes"], entry["table"]
        assert _pack(str(factor_cover(cover))) == entry["factored"], entry["table"]
        assert _pack(str(factor_truth_table(table, num_vars))) == entry["factored"], entry["table"]
        fragment = refactor_fragment(table, num_vars)
        assert (_nodes(fragment), fragment.output) == (entry["nodes"], entry["output"]), entry["table"]


def test_incompletely_specified_isop_matches_golden():
    for entry in _golden()["dont_cares"]:
        cover = isop(int(entry["lower"], 16), int(entry["upper"], 16), entry["num_vars"])
        assert _cubes(cover) == entry["cubes"], (entry["lower"], entry["upper"])


def test_npn_canonical_matches_golden():
    for table, canonical, permutation, negations, output_negation in _golden()["npn"]:
        result, transform = npn_canonical(table, 4)
        assert result == canonical, hex(table)
        assert list(transform.permutation) == permutation, hex(table)
        assert [int(bit) for bit in transform.input_negations] == negations, hex(table)
        assert int(transform.output_negation) == output_negation, hex(table)


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/synth/test_synthesis_golden.py --record")
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(record(), separators=(",", ":")) + "\n")
    print(f"wrote {GOLDEN} ({GOLDEN.stat().st_size} bytes)")
