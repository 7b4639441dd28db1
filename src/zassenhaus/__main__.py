"""``python -m zassenhaus``: the same command line as the console script."""

import sys

from .cli import main

sys.exit(main())
