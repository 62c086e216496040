"""Start ``repro serve`` with layer spans recorded (the traced run).

    python3 perfbench/launcher.py --spans OUT.json -- serve --port 0 ...

Wraps the layer entry points (:func:`tracing.install`), turns on the
dependence tester's per-tier timers, then runs the same CLI ``main`` as
``python -m repro``, so the process layout matches the untraced run.
The spans are written to ``OUT.json`` when the server exits (SIGINT).
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracing  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--spans", required=True)
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv

    from repro.__main__ import main as cli
    from repro.dependence.driver import HOT_PATH

    recorder = tracing.Recorder()
    tracing.install(recorder)
    HOT_PATH.profile_tiers = True
    try:
        return cli(argv)
    finally:
        recorder.dump(args.spans)


if __name__ == "__main__":
    sys.exit(main())
