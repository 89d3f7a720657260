"""``python -m tolrep``: the same command line as the ``tolrep`` script."""

from .cli import main

main()
