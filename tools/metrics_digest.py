#!/usr/bin/env python3
"""Digest ``repro metrics`` exports for metric-parity checks.

A digest is the sha256 of an export's records in file order, each
re-serialised with sorted keys, with the engine record's
``callback_wall_s`` dropped: that field times the host, every other field
is a pure function of the seed. Equal digests mean two exports carry the
same instruments, values and engine counts.

Used by the CI ``metrics-smoke`` job against the digests committed in
``benchmarks/results/metrics_digests.json``::

    python tools/metrics_digest.py fig6a=metrics_fig6a.jsonl          # print
    python tools/metrics_digest.py --check benchmarks/results/metrics_digests.json \\
        fig6a=metrics_fig6a.jsonl fig7=metrics_fig7.jsonl             # exit 1 on drift
    python tools/metrics_digest.py fig6a=metrics_fig6a.jsonl fig6c=metrics_fig6c.jsonl \\
        fig7=metrics_fig7.jsonl > benchmarks/results/metrics_digests.json   # record
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from typing import Dict, List


def export_digest(path: str) -> str:
    """sha256 of one metrics export, host timing dropped."""
    digest = hashlib.sha256()
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            record = json.loads(line)
            if record.get("type") == "engine":
                record.pop("callback_wall_s", None)
            digest.update(json.dumps(record, sort_keys=True).encode("utf-8"))
            digest.update(b"\n")
    return digest.hexdigest()


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("exports", nargs="+", help="ID=PATH of a metrics export")
    parser.add_argument("--check", metavar="FILE", help="compare with committed digests")
    args = parser.parse_args(argv)

    digests: Dict[str, str] = {}
    for item in args.exports:
        name, sep, path = item.partition("=")
        if not sep:
            parser.error(f"expected ID=PATH, got {item!r}")
        digests[name] = export_digest(path)

    if args.check:
        with open(args.check, encoding="utf-8") as handle:
            expected = json.load(handle)
        drift = sorted(
            name for name, digest in digests.items() if expected.get(name) != digest
        )
        for name in sorted(digests):
            status = "DRIFT" if name in drift else "ok"
            print(f"{status:5} {name} {digests[name]}")
        return 1 if drift else 0
    print(json.dumps(digests, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
