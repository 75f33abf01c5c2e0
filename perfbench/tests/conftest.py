import sys
from pathlib import Path

# The harness modules live beside run.py and import each other by name.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
