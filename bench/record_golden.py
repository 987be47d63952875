"""Record the golden output digests of every workload's query pool.

Usage, from the repository root, on the commit whose outputs are the
reference:

    python3 bench/record_golden.py

Writes ``bench/golden.json``: for each workload, query id -> SHA-256 of the
query's exact output.  The committed file was recorded from the seed commit;
detstrata's outputs must stay byte-identical, so it is not re-recorded when
the program changes.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402


def main() -> int:
    golden = {}
    for name, make_pool in workloads.POOLS.items():
        digests = {}
        for query in make_pool():
            output, ok = query.run()
            if not ok:
                print(f"{query.qid}: the program reported a failure", file=sys.stderr)
                return 1
            digests[query.qid] = hashlib.sha256(output.encode()).hexdigest()
        golden[name] = digests
    with open(os.path.join(HERE, "golden.json"), "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
