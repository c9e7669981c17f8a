"""Run one qwps command in this interpreter with spans recorded.

    PYTHONPATH=src python3 bench/cli_child.py SPANS.npz ARGV...

Behaves like ``python -m qwps.cli ARGV...`` (same output and exit code, and
an exception still ends the process with its traceback), and writes the
spans, the import time of ``qwps.cli`` and the orthogonality error of the CG
blocks built to SPANS.npz when the command ends.
"""

import sys
from pathlib import Path
from time import perf_counter

t0 = perf_counter()
import qwps.cli  # noqa: E402

import_s = perf_counter() - t0

from spans import Tracer  # noqa: E402


def main() -> int:
    out, argv = Path(sys.argv[1]), sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    tracer.current_task = 0
    try:
        return qwps.cli.main(argv)
    finally:
        tracer.dump(out, {"import_s": import_s, "max_orth_err": tracer.orth_err_max()})


if __name__ == "__main__":
    sys.exit(main())
