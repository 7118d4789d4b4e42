"""Golden CLI transcripts (`tools/make_transcripts.py`), replayed in-process.

Every report must keep its bytes, its stderr and its exit code.  The one
exception is `curve --verify`, whose residuals are floating-point rounding
noise that another libm may round differently: its JSON is compared parsed,
floats within REL_TOL relative or ABS_TOL absolute, everything else exactly.
The report's verdict reads those residuals against 1e-8, far above ABS_TOL.
"""

import contextlib
import io
import json
import math
from pathlib import Path

import pytest

from qact.cli import main

TRANSCRIPTS = Path(__file__).resolve().parent / "transcripts"
INDEX = json.loads((TRANSCRIPTS / "index.json").read_text())

REL_TOL = 1e-9
ABS_TOL = 1e-12


def _close(got, want) -> bool:
    if isinstance(want, float) and type(got) in (int, float):
        return math.isclose(got, want, rel_tol=REL_TOL, abs_tol=ABS_TOL)
    if isinstance(want, dict):
        return type(got) is dict and got.keys() == want.keys() and all(_close(got[k], want[k]) for k in want)
    if isinstance(want, list):
        return type(got) is list and len(got) == len(want) and all(map(_close, got, want))
    return type(got) is type(want) and got == want


@pytest.mark.parametrize("entry", INDEX, ids=[e["name"] for e in INDEX])
def test_transcript_replays(entry):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(entry["argv"])
    want = (TRANSCRIPTS / f"{entry['name']}.stdout").read_text()
    assert (code, err.getvalue()) == (entry["exit_code"], entry["stderr"])
    if entry["argv"][0] == "curve":
        assert _close(json.loads(out.getvalue()), json.loads(want))
    else:
        assert out.getvalue() == want


def test_float_comparison_is_bounded():
    assert _close({"r": [1e-16, 2.0]}, {"r": [3e-16, 2.0 * (1 + 1e-12)]})
    assert not _close({"r": [2.0]}, {"r": [2.0 * (1 + 1e-6)]})
    assert not _close({"ok": True}, {"ok": 1})
