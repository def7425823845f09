"""`python -m homcoh ...` runs the command-line front end, like `homcoh ...`."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
