"""Run the settlekit CLI with its layers traced; write the spans to a file.

    python3 bench/traced_cli.py SPANS.json RUN_ID [settlekit CLI arguments...]

Behaves like ``python3 -m settlekit`` (same arguments, outputs and exit
code); ``settlekit`` must be importable (``PYTHONPATH=src``).
"""

import sys

from tracing import Tracer


def main() -> int:
    spans_path, run_id, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    import settlekit.cli
    tracer = Tracer(run_id)
    tracer.install()
    try:
        return tracer.wrap("cli.main", settlekit.cli.main)(argv)
    finally:
        tracer.restore()
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
