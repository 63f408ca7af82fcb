"""Traced stand-in for ``python -m troplag.cli``, used by cliload.py.

    python perfbench/cli_traced.py OUT ARGS...

It imports troplag.cli before anything else, so the measured import
time includes every module troplag needs.  Then it wraps the layers,
runs ``cli.run_command(ARGS)``, prints its output and writes the layer
summary, with the import time, to OUT as JSON.
"""

import time

_t0 = time.perf_counter()
import troplag.cli  # noqa: E402
IMPORT_MS = (time.perf_counter() - _t0) * 1000.0

import json  # noqa: E402
import sys  # noqa: E402

import measure  # noqa: E402


def main(out_path, argv):
    tracer = measure.Tracer()
    tracer.install()
    tracer.open(measure.ROOT)
    try:
        code, text = troplag.cli.run_command(argv)
    finally:
        tracer.close()
        tracer.uninstall()
    sys.stdout.write(text)
    summary = tracer.summary()
    summary["import_ms"] = IMPORT_MS
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2:]))
