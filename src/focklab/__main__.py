"""``python -m focklab``: the same entry point as the ``focklab`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
