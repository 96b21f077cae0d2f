"""``python3 -m bench`` -- see :mod:`bench.cli`."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
