"""Time one fresh process's set-up: import the CLI, load configs, build objects.

Usage: ``python3 perfbench/setup_probe.py CONFIG.json [...]`` with the
package's ``src`` directory on ``PYTHONPATH``.  Prints the seconds taken.
"""

import sys
import time


def main(paths: list[str]) -> None:
    start = time.perf_counter()
    from diffentropy.cli import load_config

    for path in paths:
        config = load_config(path)
        config.mixture()
        config.schedule()
        config.built_partitions()
    print(repr(time.perf_counter() - start))


if __name__ == "__main__":
    main(sys.argv[1:])
