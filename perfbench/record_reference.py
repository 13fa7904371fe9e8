"""Record the span-scan reference: the CSV of every scan call in the pool.

    python3 perfbench/record_reference.py

Run from the repository root at the commit whose output is the reference
(the benchmark checks every later commit against it byte for byte).  Each
pool entry is one `braidrep scan --dim 5 --oracle burnside` call of a given
kind, row count and CLI seed; a benchmark block draws one entry per kind.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent

DIM = 5
POOL = 50
# kind, rows per call, CLI seed of pool entry 0 (entry i uses seed + i)
KINDS = (("random", 6, 1000), ("degenerate", 2, 2000), ("central", 2, 3000))


def main():
    sys.path.insert(0, str(HERE.parent / "src"))
    from braidrep import cli

    csv = {}
    for kind, rows, first in KINDS:
        for cli_seed in range(first, first + POOL):
            out = io.StringIO()
            argv = ["scan", "--dim", str(DIM), "--count", str(rows),
                    "--seed", str(cli_seed), "--kind", kind, "--oracle", "burnside"]
            with contextlib.redirect_stdout(out):
                if cli.main(argv) != 0:
                    raise SystemExit("scan %s exited non-zero" % argv)
            text = out.getvalue().rstrip("\n")
            for row in text.split("\n")[1:]:
                cells = row.split(",")
                if cells[-1] != "agree" or any(c.startswith("error:") for c in cells):
                    raise SystemExit("scan %s: row %r is not a clean verdict" % (argv, row))
            csv["%s:%d" % (kind, cli_seed)] = text
    reference = {"dim": DIM, "pool": POOL, "kinds": [list(k) for k in KINDS], "csv": csv}
    with open(HERE / "scan_reference.json", "w") as handle:
        json.dump(reference, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()
