import gc
import sys

from .cli import main

# The process ends after main: freezing the imports' heap, then the whole heap,
# keeps main's collections and the shutdown collections from walking them.
gc.freeze()
code = main()
gc.freeze()
sys.exit(code)
