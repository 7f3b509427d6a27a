import os
import sys

# the benchmark imports the package from the repository's source tree
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
