import pathlib
import sys

BENCH_DIR = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH_DIR), str(BENCH_DIR.parent / "src")]
