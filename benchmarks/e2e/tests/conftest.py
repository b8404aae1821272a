"""Make ``repro`` and the harness modules importable for the self-tests
(run with ``python -m pytest benchmarks/e2e/tests`` from the repo root;
tier-1's ``testpaths`` does not include this directory)."""

import os
import sys

E2E = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(os.path.dirname(E2E))
for path in (E2E, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)
