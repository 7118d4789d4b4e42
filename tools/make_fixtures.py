#!/usr/bin/env python3
"""One-time transcription of the printed symplectic data into checksummed
JSON fixtures.  Re-running overwrites src/qact/fixtures/*.json in place.

Usage: python3 tools/make_fixtures.py   (takes no arguments)
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from qact.siegel import fixture_checksum  # noqa: E402

OUT = Path(__file__).resolve().parent.parent / "src" / "qact" / "fixtures"


# -- dimension three: 6x6 generators a, b, c and the one-parameter family ----

GEN_A = [
    [0, 0, 0, 0, -1, 0],
    [-1, 0, 0, 1, 0, 0],
    [0, 0, -1, 0, 0, 0],
    [0, 1, 0, 0, -1, 0],
    [-1, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, -1],
]
GEN_B = [
    [-1, 1, 0, 0, -1, 1],
    [-1, 0, -1, 1, 0, 1],
    [1, 0, 0, -1, -1, 0],
    [0, 1, 0, -1, -1, 1],
    [-1, 0, -1, 1, 0, 0],
    [0, 1, 0, 0, -1, 0],
]
GEN_C = [
    [0, 0, 0, -1, -1, 1],
    [0, 0, 0, 0, -1, 1],
    [0, 0, 0, 0, 0, -1],
    [1, 0, 0, -1, -1, 0],
    [-1, 1, 0, 0, -1, 1],
    [0, 1, 1, -1, -1, 0],
]


def term(exp, re="0", im="0"):
    return {"exp": list(exp), "re": re, "im": im}


# Z_t entries: constant term + t term, over Q(i).  The two printed sources
# disagree on the bottom-right constant (i versus 1); the exact fixed-family
# check passes only for the i variant, which is therefore the main family.
# The rejected variant is kept for the recorded-discrepancy report.
Z3 = [
    [
        [term((0,), "1", "1"), term((1,), "1/2", "-1/2")],
        [term((0,), "1"), term((1,), "0", "-1")],
        [term((1,), "1/2", "1/2")],
    ],
    [
        [term((0,), "1"), term((1,), "0", "-1")],
        [term((0,), "1"), term((1,), "-1", "-1")],
        [term((1,), "1")],
    ],
    [
        [term((1,), "1/2", "1/2")],
        [term((1,), "1")],
        [term((0,), "0", "1"), term((1,), "-1/2", "1/2")],
    ],
]
Z3_VARIANT = {
    "row": 2,
    "col": 2,
    "terms": [term((0,), "1"), term((1,), "-1/2", "1/2")],
}

# relations of <a,b,c : a^2, b^2, c^4, bcbc^3, acac^3, abac^2b>, slots a,b,c = 0,1,2
REL_G3 = [
    [[0, 2]],
    [[1, 2]],
    [[2, 4]],
    [[1, 1], [2, 1], [1, 1], [2, 3]],
    [[0, 1], [2, 1], [0, 1], [2, 3]],
    [[0, 1], [1, 1], [0, 1], [2, 2], [1, 1]],
]

THM10 = {
    "name": "thm10",
    "version": 1,
    "data": {
        "g": 3,
        "generators": [GEN_A, GEN_B, GEN_C],
        "generator_names": ["a", "b", "c"],
        "relations": REL_G3,
        "expected_order": 16,
        "target_group": "C4xC2_rtimes_C2",
        "expected_dimension": 1,
        "family": {"params": ["t"], "entries": Z3},
        "family_variant": Z3_VARIANT,
    },
}


# -- dimension five: three 10x10 generators and the two-parameter family -----

M1 = [
    [-2, -2, 1, 1, 1, -3, 0, 1, 5, 4],
    [1, 1, 0, -1, -1, 4, 0, 0, -1, -3],
    [-1, -1, 1, 0, -1, 1, 0, 0, 0, 2],
    [0, 1, 0, 0, 0, 1, -1, 0, 0, 0],
    [0, 0, 1, 0, -1, 2, 0, 2, -3, 2],
    [0, 0, 0, 0, 0, 0, 0, 1, -1, 1],
    [0, 0, 0, 0, 0, 0, 0, 1, -2, 1],
    [0, 0, 0, 0, 0, -1, 0, -1, 0, -1],
    [0, 0, 0, 0, 0, -1, 1, 0, 0, 0],
    [0, 0, 0, 0, 0, 1, 0, 1, 1, 0],
]
M2 = [
    [-2, -2, 1, 1, 1, 0, -3, 1, 5, 4],
    [2, 2, -1, -1, 0, 3, 0, 0, -1, -5],
    [1, 1, -1, 0, 1, -1, 0, 0, 0, -2],
    [-1, -2, 1, 0, 1, -5, 1, 0, 0, 3],
    [1, 1, 0, 0, 0, -4, 5, 2, -3, 0],
    [0, 0, 0, 0, 0, -2, 2, 1, -1, 1],
    [0, 0, 0, 0, 0, -2, 2, 1, -2, 1],
    [0, 0, 0, 0, 0, 1, -1, -1, 1, 0],
    [0, 0, 0, 0, 0, 1, -1, 0, 0, 0],
    [0, 0, 0, 0, 0, 1, 0, 1, 1, 0],
]
M3 = [
    [-1, -2, 0, 0, 2, 0, -2, 0, 6, 4],
    [0, 0, 0, 0, -1, 2, 0, 0, 0, -1],
    [0, 0, -1, 0, 0, 0, 0, 0, 1, 0],
    [-2, -3, 1, 1, 1, -6, 0, -1, 0, 5],
    [0, -1, 0, 0, 0, -4, 1, 0, -5, 0],
    [0, 0, 0, 0, 0, -1, 0, 0, -2, 0],
    [0, 0, 0, 0, 0, -2, 0, 0, -3, -1],
    [0, 0, 0, 0, 0, 0, 0, -1, 1, 0],
    [0, 0, 0, 0, 0, 0, 0, 0, 1, 0],
    [0, 0, 0, 0, 0, 2, -1, 0, 1, 0],
]


def lin(c="0", c1="0", c2="0"):
    """constant + c1*t1 + c2*t2 with rational coefficients."""
    out = []
    if c != "0":
        out.append(term((0, 0), c))
    if c1 != "0":
        out.append(term((1, 0), c1))
    if c2 != "0":
        out.append(term((0, 1), c2))
    return out


Z5 = [
    [
        lin("3/2", "4", "-3"),
        lin("-7/4", "-2", "3/2"),
        lin(),
        lin("5/4", "2", "-3/2"),
        lin("7/4", "-2", "5/2"),
    ],
    [
        lin("-7/4", "-2", "3/2"),
        lin("1", "1"),
        lin("0", "0", "1"),
        lin("-1/2", "-1", "1"),
        lin("1/4", "1", "-1/2"),
    ],
    [
        lin(),
        lin("0", "0", "1"),
        lin("0", "0", "2"),
        lin("1/2"),
        lin("0", "0", "1"),
    ],
    [
        lin("5/4", "2", "-3/2"),
        lin("-1/2", "-1", "1"),
        lin("1/2"),
        lin("0", "1"),
        lin("-1/4", "-1", "3/2"),
    ],
    [
        lin("7/4", "-2", "5/2"),
        lin("1/4", "1", "-1/2"),
        lin("0", "0", "1"),
        lin("-1/4", "-1", "3/2"),
        lin("0", "1"),
    ],
]

THM11 = {
    "name": "thm11",
    "version": 1,
    "data": {
        "g": 5,
        "generators": [M1, M2, M3],
        "generator_names": ["g1", "g2", "g3"],
        "relations": [],
        "expected_order": 32,
        "target_group": "D4xC2_rtimes_C2",
        "expected_dimension": 2,
        "family": {"params": ["t1", "t2"], "entries": Z5},
    },
}


# -- dimension four: QD16 generators A, B and the isolated period matrix -----

MAT_A = [
    [0, 0, 0, 0, -1, 0, 0, 0],
    [0, 1, 1, 1, 1, -2, -1, 0],
    [0, 0, 1, 1, 0, 1, -2, 0],
    [0, 0, 0, 1, 0, 0, 1, -1],
    [1, 1, 1, 1, -1, -1, -1, 0],
    [0, 1, 1, 1, 0, -1, -1, 0],
    [0, 0, 1, 1, 0, 0, -1, 0],
    [0, 0, 0, 1, 0, 0, 0, 0],
]
MAT_B = [
    [0, -1, -1, -1, -1, 1, 1, 1],
    [0, 0, 0, 0, 1, -1, 0, 1],
    [-1, -1, -1, 0, 1, 0, 2, -1],
    [-1, -1, 0, 0, 1, 1, -1, 0],
    [0, -1, -1, -1, 0, 0, 1, 1],
    [-1, -1, -1, -1, 1, 0, 1, 1],
    [-1, -1, -1, 0, 1, 0, 1, 0],
    [-1, -1, 0, 0, 1, 0, 0, 0],
]

# entries as (p, q, r, s): p + q*sqrt2 + i*lambda*(r + s*sqrt2),
# lambda = sqrt(500 + 146*sqrt2)/644
E00 = ["6/7", "-1/28", "23", "0"]
E01 = ["1/14", "-3/28", "-27", "10"]
E02 = ["1/14", "-3/28", "-5", "1"]
E03 = ["-1/7", "-1/28", "19", "-13"]
E11 = ["5/7", "5/28", "33", "-2"]
E12 = ["-2/7", "5/28", "-15", "3"]

Z0_QUADS = [
    [E00, E01, E02, E03],
    [E01, E11, E12, E02],
    [E02, E12, E11, E01],
    [E03, E02, E01, E00],
]

# relations of <u,v : u^16, v^2, v u v u^-7>, slots u, v = 0, 1
REL_QD16 = [
    [[0, 16]],
    [[1, 2]],
    [[1, 1], [0, 1], [1, 1], [0, -7]],
]

PROP13 = {
    "name": "prop13",
    "version": 1,
    "data": {
        "g": 4,
        "generators": [MAT_A, MAT_B],
        "generator_names": ["A", "B"],
        "relations": REL_QD16,
        "expected_order": 32,
        "target_group": "QD16",
        "expected_dimension": 0,
        "period_matrix": Z0_QUADS,
    },
}


def main(argv=()):
    if argv:
        print("usage: make_fixtures.py\n"
              "rewrites src/qact/fixtures/*.json from the transcribed data; takes no arguments",
              file=sys.stderr)
        return 2
    OUT.mkdir(parents=True, exist_ok=True)
    for fixture in (THM10, THM11, PROP13):
        fixture["sha256"] = fixture_checksum(fixture["data"])
        path = OUT / f"{fixture['name']}.json"
        path.write_text(json.dumps(fixture, indent=1, sort_keys=True) + "\n")
        print(f"wrote {path} ({fixture['sha256'][:12]})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
