import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

# The benchmark's library-free reference (bench/instances.py), for the
# cross-checks that must share no code with the library.
sys.path.append(os.path.join(os.path.dirname(__file__), "..", "bench"))
