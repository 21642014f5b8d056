#!/usr/bin/env python3
"""Peak-memory gate for a perfbench build run.

Reads perfbench/run.py's standard output from RESULT_FILE, takes the JSON
result on its last line, and exits 1 if its `peak_rss_mb` is above LIMIT_MB
(or missing). The CI perfbench job holds build_grid and build_er to their
build-memory bounds with it.

Usage: scripts/check_peak_rss.py RESULT_FILE LIMIT_MB
"""
import json
import sys


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    with open(argv[1], encoding="utf-8") as f:
        lines = [line for line in f.read().splitlines() if line.strip()]
    limit = float(argv[2])
    try:
        rss = json.loads(lines[-1])["metrics"]["peak_rss_mb"]["value"]
    except (IndexError, KeyError, TypeError, ValueError) as e:
        print(f"{argv[1]}: no peak_rss_mb in the last line ({e!r})", file=sys.stderr)
        return 1
    verdict = "ok" if rss <= limit else "FAIL"
    print(f"peak_rss_mb {rss:.1f} MB, limit {limit:.0f} MB: {verdict}")
    return 0 if rss <= limit else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
