"""Child process of the benchmark: one CLI run, or one set-up, timed inside.

    python child.py run TIMING_JSON -- CLI_ARGS...
        imports eprsignal.cli and calls cli.main(CLI_ARGS); the report goes
        to stdout as with ``python -m eprsignal.cli``.  Writes {"main_s"},
        the time of that call, to TIMING_JSON and exits with main's code.
    python child.py setup TIMING_JSON CONFIG
        imports numpy untimed, then times importing eprsignal.cli, loading
        and validating CONFIG and building its scenario or observable
        through eprsignal.serialize, without running the command.  Writes
        {"setup_s"} to TIMING_JSON.  numpy's import is left out: no change
        to eprsignal can alter it, and from one process to the next it
        varied between 0.06 and 0.14 s on a shared 2-CPU machine, more
        than all of eprsignal's own set-up (0.04 to 0.06 s).

``src/`` of the checkout holding this file is put first on the path, so the
package runs from source without being installed.
"""

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def main(argv: list[str]) -> int:
    mode, timing_path, *rest = argv
    if mode == "setup":
        import numpy  # noqa: F401
    t0 = time.perf_counter()
    from eprsignal import cli, serialize

    t1 = time.perf_counter()
    if mode == "run":
        code = cli.main(rest[1:] if rest[:1] == ["--"] else rest)
        sys.stdout.flush()
        timing = {"main_s": time.perf_counter() - t1}
    elif mode == "setup":
        data = cli.load_config(rest[0])
        config = cli.parse_config(data, {"command": data["command"]})
        if config.scenario is not None:
            serialize.scenario_from_json(config.scenario)
        else:
            serialize.observable_from_json(config.observable)
        code = 0
        timing = {"setup_s": time.perf_counter() - t0}
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    Path(timing_path).write_text(json.dumps(timing))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
