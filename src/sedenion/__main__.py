"""`python -m sedenion`: the same command line as the `sedenion` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
