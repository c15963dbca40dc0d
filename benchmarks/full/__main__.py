"""``python -m benchmarks.full`` — same command line as ``run.py``."""

from benchmarks.full.run import main

raise SystemExit(main())
