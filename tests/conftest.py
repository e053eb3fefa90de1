import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
# ``pythonpath`` in pyproject.toml reaches this process only; the CLI tests
# start ``python -m fsqkd.cli`` in subprocesses, which read the environment
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [str(Path(__file__).resolve().parents[1] / "src"),
                  os.environ.get("PYTHONPATH")]))
