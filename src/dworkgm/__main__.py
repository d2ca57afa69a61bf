"""``python -m dworkgm``: the ``dworkgm`` command line."""

import sys

from .cli import main

sys.exit(main())
