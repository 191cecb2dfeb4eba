"""``python -m hbgowers``: the hbg command line."""

import sys

from hbgowers.cli import main

sys.exit(main())
