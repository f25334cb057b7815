"""One tourcensus CLI call with spans recorded around each module's entry points.

    PYTHONPATH=src python3 perfbench/traced_cli.py OUT.json census --random --order 6

Prints what ``tourcensus.cli.main`` prints and exits with its code.  Writes
to OUT.json the import time of ``tourcensus.cli``, the self time per span
name and the counters.
"""

import importlib
import json
import sys
import time

from tracing import SpanRecorder, install


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    cli = importlib.import_module("tourcensus.cli")
    import_s = time.perf_counter() - start
    recorder = SpanRecorder()
    install(recorder)
    code = cli.main(argv)
    sys.stdout.flush()
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"import_s": import_s, "self_s": recorder.self_times(),
                   "counts": recorder.counts}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
