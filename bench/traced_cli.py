"""Run one `shimlift` CLI call with the benchmark tracer installed and
write its spans to a JSON file.

Usage: python3 traced_cli.py SPANS_FILE REQUEST_ID -- <shimlift arguments>
"""

from __future__ import annotations

import json
import sys

import tracer


def main() -> int:
    spans_path, request_id = sys.argv[1], int(sys.argv[2])
    argv = sys.argv[sys.argv.index("--") + 1:]
    import shimlift.cli

    rec = tracer.Tracer()
    rec.install()
    rec.request = request_id
    rec.active = True
    try:
        return shimlift.cli.main(argv)
    finally:
        rec.active = False
        sys.stdout.flush()
        with open(spans_path, "w") as fh:
            json.dump(rec.spans, fh)


if __name__ == "__main__":
    sys.exit(main())
