#!/usr/bin/env python3
"""Self-check of the benchmark on its smallest instances, in a few seconds::

    python3 bench/selfcheck.py

For every workload and both trace modes it runs the benchmark on the
smallest catalog instance of each command and expectation, and checks
that every metric named in ``BENCHMARK.json`` is printed with its unit and
a finite value, and that no operation failed.
Then it runs each workload with a CLI whose output is deliberately
corrupted, and checks that every operation is counted as failed while
all metrics are still printed.  Exits with 1 and lists the problems if
any check fails.
"""

from __future__ import annotations

import io
import json
import math
import sys
from contextlib import redirect_stdout
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
SEED = 2


def corrupt(text: str) -> str:
    """Changes one fact in a JSON answer, in a way each verifier must catch."""
    out = json.loads(text)
    if "y" in out:
        out["y"][0] = str(int(out["y"][0]) + 1)
    elif "det" in out:
        out["det"] = str(int(out["det"]) + 1)
    elif "shortest_is_at_least_2" in out:
        out["shortest_is_at_least_2"] = False
    elif "vertices" in out:
        out["vertices"][0]["face_dimension"] += 1
    elif "min_support" in out:
        out["min_support"] = out["bound"] + 1
    else:
        raise ValueError(f"no corruption defined for {sorted(out)}")
    return json.dumps(out)


def corrupting(cli_main):
    def main(argv):
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = cli_main(argv)
        print(corrupt(buf.getvalue()))
        return code

    return main


def check_metrics(where: str, result: dict, expected: list[dict], problems: list[str]) -> None:
    want = {m["name"]: m["unit"] for m in expected}
    got = {name: entry["unit"] for name, entry in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(k for k in set(want) & set(got) if want[k] != got[k])
        problems.append(f"{where}: missing {missing}, extra {extra}, wrong units {wrong}")
    for name, entry in result["metrics"].items():
        value = entry["value"]
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{where}: {name} = {value!r}")


def main() -> int:
    problems: list[str] = []
    for spec in SPEC["workloads"]:
        name = spec["name"]
        for trace, expected in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
            where = f"{name} trace={trace}"
            _, result = run.run(name, SEED, 0.4, trace, tiny=True)
            check_metrics(where, result, expected, problems)
            if result["failed"] or not result["correct"] or result["attempted"] < 1:
                problems.append(f"{where}: {result['failed']} of {result['attempted']} failed")
        where = f"{name} corrupted"
        _, result = run.run(name, SEED, 0.2, 0, tiny=True, wrap_cli=corrupting)
        check_metrics(where, result, SPEC["end_to_end"], problems)
        if result["correct"] or result["failed"] != result["attempted"]:
            problems.append(
                f"{where}: only {result['failed']} of {result['attempted']} corrupted "
                f"outputs were caught"
            )
        print(f"{name}: ok" if not problems else f"{name}: {len(problems)} problem(s) so far")
    for line in problems:
        print(f"PROBLEM {line}")
    print("selfcheck:", "FAIL" if problems else "PASS")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
