"""``python -m hwquartic``: the command-line interface of ``harness.main``."""

import sys

from .harness import main

sys.exit(main())
