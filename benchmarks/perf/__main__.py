import sys

from benchmarks.perf.run import main

sys.exit(main())
