"""``python -m bmps``: the command-line runner of :mod:`bmps.cli`."""

from .cli import main

raise SystemExit(main())
