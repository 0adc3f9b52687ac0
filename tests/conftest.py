import sys
from pathlib import Path

from hypothesis import settings

# make the sibling oracle module importable from every test file
sys.path.insert(0, str(Path(__file__).resolve().parent))

# every property replays the same examples on every run and machine, with
# no example database and no per-example deadline; tests set only counts
settings.register_profile("geonorm", deadline=None, database=None,
                          derandomize=True)
settings.load_profile("geonorm")
