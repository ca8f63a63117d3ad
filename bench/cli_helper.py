"""Run one canonsurf command with every public function traced.

    python3 bench/cli_helper.py SPANS_JSON ARG...

Times the package import, installs the tracer, calls
canonsurf.cli.main(ARGS) and writes the spans, the counters and the import
time to SPANS_JSON. Exits with the command's exit code. The traced run of the
benchmark starts this helper where the untraced run starts
`python -m canonsurf`.
"""

import importlib
import sys
import time

from tracing import Tracer


def main():
    spans_path, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    cli = importlib.import_module("canonsurf.cli")
    import_s = time.perf_counter() - t0
    tracer = Tracer()
    tracer.install()
    code = cli.main(argv)
    tracer.dump(spans_path, {"import_s": import_s})
    return code


if __name__ == "__main__":
    sys.exit(main())
