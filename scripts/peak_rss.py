#!/usr/bin/env python3
"""Runs a command and bounds the peak resident memory of its process tree.

Usage: python3 scripts/peak_rss.py LIMIT_MIB COMMAND [ARG...]

Prints ``peak_rss_mib: N`` -- the largest resident set of any process the
command's tree waited for (``getrusage(RUSAGE_CHILDREN).ru_maxrss``) -- to
stderr. Exits with the command's status if it failed, else 1 if the peak
exceeded LIMIT_MIB, else 0. Needs no tool beyond the Python standard
library, so it works where ``/usr/bin/time`` is missing.
"""

import resource
import subprocess
import sys


def main() -> int:
    if len(sys.argv) < 3:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    limit_mib = float(sys.argv[1])
    status = subprocess.run(sys.argv[2:], check=False).returncode
    # ru_maxrss is in KiB on Linux.
    peak_mib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    print(f"peak_rss_mib: {peak_mib:.0f} (limit {limit_mib:.0f})", file=sys.stderr)
    if status != 0:
        return status
    if peak_mib > limit_mib:
        print(f"peak_rss.py: peak RSS {peak_mib:.0f} MiB exceeds {limit_mib:.0f} MiB",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
