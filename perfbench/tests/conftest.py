import sys
from pathlib import Path

# the benchmark's modules import each other as top-level modules, as they do
# when perfbench/run.py runs as a script
sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
