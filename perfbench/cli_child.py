"""Traced stand-in for `python -m drovar`: times the import, wraps the
layers, runs the CLI, and writes its spans to a JSON file when it exits.

Usage: python3 cli_child.py SPANS_JSON DROVAR_ARGS...
"""

import json
import sys
import time
from pathlib import Path

import spans


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    t0 = time.perf_counter()
    import drovar.cli

    import_s = time.perf_counter() - t0
    rec = spans.Recorder()
    rec.op = 0
    spans.install_library(rec)
    try:
        return drovar.cli.main(argv)
    finally:
        Path(out_path).write_text(json.dumps({"import_s": import_s, "spans": rec.spans}))


if __name__ == "__main__":
    sys.exit(main())
