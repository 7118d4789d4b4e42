"""Child process of the qact benchmark: one fresh `qact` CLI run.

    python3 perfbench/launch.py STAMP [--trace TRACE] -- <qact arguments>

Imports `qact.cli` (and with it numpy), parses the qact arguments (the CLI
parses them again, which takes about a millisecond), then writes
`time.monotonic()` to STAMP: the end of set-up, before the first call into any
layer.  The monotonic clock is shared by all processes of the machine, so the
parent subtracts its own spawn time from it.  With `--trace` the layers are
wrapped after the stamp and the aggregated spans are written to TRACE when the
CLI returns.  The exit code is the CLI's.
"""

import os
import sys
import time


def main() -> int:
    argv = sys.argv[1:]
    split = argv.index("--")
    own, qact_argv = argv[:split], argv[split + 1:]
    stamp_path = own[0]
    trace_path = own[own.index("--trace") + 1] if "--trace" in own else None

    from qact import cli

    cli.build_parser().parse_args(qact_argv)
    with open(stamp_path, "w") as fh:
        fh.write(repr(time.monotonic()))

    if trace_path is None:
        return cli.main(qact_argv)

    import layertrace

    tracer = layertrace.Tracer(trace_id=os.path.basename(trace_path))
    layertrace.install(tracer)
    try:
        return cli.main(qact_argv)
    finally:
        tracer.write(trace_path)


if __name__ == "__main__":
    raise SystemExit(main())
