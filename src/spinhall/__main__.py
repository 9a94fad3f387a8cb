"""`python -m spinhall` and the installed `spinhall` script both enter at `run`."""

import gc
import sys


def run(argv=None) -> int:
    """Run the CLI in a process of its own: the objects the imports built
    live until exit, so they go to the permanent GC generation, which later
    collections and the shutdown collection skip.  Importers of `spinhall`
    and in-process `cli.main` callers keep their GC state."""
    from .cli import main

    gc.freeze()
    return main(argv)


if __name__ == "__main__":
    sys.exit(run())
