"""``python -m polysigma``: the command-line interface of ``polysigma.cli``."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
