"""Run one `mutindep` command under the benchmark's tracer.

    python -X importtime perfbench/cli_child.py SPAN_DIR ARGS...

Behaves as `python -m mutindep.cli ARGS...` and, on exit, writes the span
summary of the process to SPAN_DIR/<pid>.json.  The traced phase of the
cli-cold workload starts its children through this file.
"""

import json
import os
import sys

import mutindep.cli

import spans


def main():
    span_dir, args = sys.argv[1], sys.argv[2:]
    tracer = spans.Tracer().install()
    try:
        code = mutindep.cli.main(args)
    finally:
        tracer.uninstall()
        with open(os.path.join(span_dir, f"{os.getpid()}.json"), "w", encoding="utf-8") as fh:
            json.dump(tracer.summary(), fh)
    sys.exit(code)


if __name__ == "__main__":
    main()
