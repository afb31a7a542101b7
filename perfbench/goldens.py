"""Merge the output digests that runs observed into goldens.json.

Usage: python3 perfbench/goldens.py

Each run writes perfbench/out/digests-<workload>-seed<N>-trace<T>.json with
the sha256 of every output that passed its checks (verdict table, oracle
subsample, existing goldens).  This adds them to goldens.json, which later
runs compare against, and refuses a digest that contradicts a recorded one.
"""

from __future__ import annotations

import json
import sys

from run import GOLDENS, OUT_DIR, load_goldens


def main() -> int:
    goldens = load_goldens()
    added = 0
    for path in sorted(OUT_DIR.glob("digests-*.json")):
        observed = json.loads(path.read_text())
        for kind, entries in observed.items():
            for key, sha in entries.items():
                known = goldens[kind].get(key)
                if known is None:
                    goldens[kind][key] = sha
                    added += 1
                elif known != sha:
                    print(f"error: {path.name}: {key} has {sha}, golden {known}", file=sys.stderr)
                    return 1
    GOLDENS.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")
    print(f"{added} digests recorded; goldens.json holds "
          f"{len(goldens['audit'])} audit and {len(goldens['seq'])} seq entries")
    return 0


if __name__ == "__main__":
    sys.exit(main())
