"""Run one ``chainrad`` CLI invocation with spans around its layer calls.

    python perfbench/cli_traced.py <spans.json> <chainrad arguments...>

Behaves like ``python -m chainrad.cli <arguments...>`` (same stdout and
exit code) and writes the tracer's aggregates and spans to <spans.json>.
"""

import json
import sys

import tracing


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = tracing.Tracer()
    tracing.install(tracer)
    import chainrad.cli

    try:
        code = chainrad.cli.main(argv)
    finally:
        sys.stdout.flush()
        with open(spans_path, "w") as fh:
            json.dump(tracer.dump(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
