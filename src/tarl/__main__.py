"""``python -m tarl``: the command-line front end (see ``tarl.cli``)."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
