"""``python -m gotonum``: the command line of ``gotonum.cli``."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
