import os
import sys

sys.path.insert(0, os.path.dirname(__file__))

# `python -m gipad` subprocesses import the package from the same tree as the tests
_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))
