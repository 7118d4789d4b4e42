#!/usr/bin/env python3
"""Write golden CLI transcripts: stdout, stderr and the exit code of
`qact.cli.main` for a fixed list of argv, run in-process.

Each argv's stdout goes to tests/transcripts/<name>.stdout; the argv, the
exit code and stderr go to tests/transcripts/index.json.
`tests/test_transcripts.py` replays every entry and compares.  Re-running
overwrites the transcripts in place, so run it only when a report is meant
to change, and say which in the change that commits them.

Usage: python3 tools/make_transcripts.py   (takes no arguments)
"""

import contextlib
import io
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from qact import cli  # noqa: E402

OUT = ROOT / "tests" / "transcripts"

ARGV = {
    "families-n3": ["families", "--n", "3"],
    "families-n4": ["families", "--n", "4"],
    "families-n5": ["families", "--n", "5"],
    "families-n6": ["families", "--n", "6"],
    "classify-n3": ["classify", "--n", "3", "--signature", "0:4,4,4,4"],
    "classify-n4": ["classify", "--n", "4", "--signature", "0:8,8,4,4"],
    "classify-n4-genus-one": ["classify", "--n", "4", "--signature", "1:4"],
    "classify-n5": ["classify", "--n", "5", "--signature", "0:16,16,4,4"],
    "classify-n4-empty": ["classify", "--n", "4", "--signature", "0:2,2,4,8"],
    "classify-n5-empty": ["classify", "--n", "5", "--signature", "0:2,2,4,8"],
    "classify-n3-empty-over-budget": ["classify", "--n", "3", "--signature", "0:4,4,4,4,4,4,4,4,4,8"],
    "classify-n6": ["classify", "--n", "6", "--signature", "0:32,32,4,4"],
    "genus-zero-n6-scan": ["genus-zero", "--n", "6", "--exhaustive", "--max-periods", "5"],
    "genus-zero-n5-scan": ["genus-zero", "--n", "5", "--exhaustive"],
    "genus-zero-n6-scan-12": ["genus-zero", "--n", "6", "--exhaustive", "--max-periods", "12"],
    "chars-n3": ["chars", "--n", "3"],
    "chars-n4": ["chars", "--n", "4"],
    "chars-n5": ["chars", "--n", "5"],
    "extend-n4-f1-g1": ["extend", "--n", "4", "--family", "F1", "--super", "G1"],
    "extend-n4-f2-g2": ["extend", "--n", "4", "--family", "F2", "--super", "G2"],
    "decompose-n4": ["decompose", "--n", "4", "--a", "1,0,0,0", "--b", "1,1,1"],
    "siegel-verify-thm10": ["siegel", "verify", "--fixture", "thm10"],
    "siegel-verify-thm11": ["siegel", "verify", "--fixture", "thm11"],
    "siegel-verify-prop13": ["siegel", "verify", "--fixture", "prop13"],
    "siegel-group-thm10": ["siegel", "group", "--fixture", "thm10"],
    "siegel-group-thm11": ["siegel", "group", "--fixture", "thm11"],
    "siegel-group-prop13": ["siegel", "group", "--fixture", "prop13"],
    "curve-n3-verify": ["curve", "--n", "3", "--t", "0.3+1.1i", "--verify"],
    "curve-n4-verify": ["curve", "--n", "4", "--t", "0.3+1.1i", "--verify"],
    "curve-n5-verify": ["curve", "--n", "5", "--t", "0.3+1.1i", "--verify"],
    "groups-q16": ["groups", "--name", "Q16"],
    "groups-g1-n4": ["groups", "--name", "G1", "--n", "4"],
}


def transcribe(argv: list[str]) -> tuple[int, str, str]:
    """The exit code, stdout and stderr of `qact.cli.main(argv)`."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def main() -> None:
    OUT.mkdir(exist_ok=True)
    index = []
    for name, argv in ARGV.items():
        code, out, err = transcribe(argv)
        (OUT / f"{name}.stdout").write_text(out)
        index.append({"name": name, "argv": argv, "exit_code": code, "stderr": err})
    (OUT / "index.json").write_text(json.dumps(index, indent=1) + "\n")


if __name__ == "__main__":
    main()
