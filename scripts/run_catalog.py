#!/usr/bin/env python3
"""Run the bundled example catalog from a source checkout.

Thin wrapper over `crpencils catalog`; any extra arguments are forwarded,
e.g.:

    python3 scripts/run_catalog.py --filter 'gl-*' --format text
"""

import sys

from crpencils.cli import main

if __name__ == "__main__":
    sys.exit(main(["catalog", *sys.argv[1:]]))
