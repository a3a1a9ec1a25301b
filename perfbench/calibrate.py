"""Fixed calibration work, timed by ``run.py`` next to every pass.

Usage: python3 calibrate.py

The speed of the host this benchmark was tuned on drifts by more than
half within minutes, and CPU time tracks wall time, so the slowdown is in
the machine, not in scheduling.  Before each pass ``run.py`` spawns this
child, which starts an interpreter and imports numpy and scipy.linalg,
the libraries ``nullcone.cli`` loads, and prints the time its imports
finished (system-wide monotonic clock).  It imports nothing from
nullcone, so no change to the library can move it; its median over a run
measures the machine's current speed for the kind of work a pass does.
"""

import sys
import time


def main() -> int:
    import numpy  # noqa: F401
    import scipy.linalg  # noqa: F401

    print('{"t_imported": %r}' % time.perf_counter())
    return 0


if __name__ == "__main__":
    sys.exit(main())
