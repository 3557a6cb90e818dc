"""``python -m mincodes``: the command line of :mod:`mincodes.cli`."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
