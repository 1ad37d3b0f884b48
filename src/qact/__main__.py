"""The process entry: `python -m qact` and the installed `qact` script.

The collector is off while `qact.cli` and numpy are imported: nearly all
the objects the imports make live until the process ends, so the
collections it would run there free almost nothing.  The imports' heap is
then frozen, the collector turned back on, and the whole heap frozen again
after `main`: the collections inside `main` and those of interpreter
shutdown skip what is frozen.  `cli.main` itself leaves the collector
alone.
"""

import gc
import sys


def run() -> int:
    gc.disable()
    from .cli import main
    gc.freeze()
    gc.enable()
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(run())
