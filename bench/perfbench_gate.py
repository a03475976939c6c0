#!/usr/bin/env python3
"""Fails unless a saved perfbench report ends in a passing result line.

    python3 perfbench/run.py --workload serve_decode --seed 1 --seconds 5 > out.txt
    python3 bench/perfbench_gate.py out.txt

perfbench/run.py exits 0 whenever the program printed a result, even one
that reports "correct": false, so a CI step has to read the result itself.
The last non-empty line must be a JSON object with "correct": true,
"attempted" above 0 and "failed" equal to 0. The line is echoed on success;
otherwise the reason goes to stderr and the exit status is 1.
"""
import json
import sys


def verdict(text):
    """Returns None when the report passes, else the reason it does not."""
    lines = [l for l in text.splitlines() if l.strip()]
    if not lines:
        return "empty report"
    try:
        res = json.loads(lines[-1])
    except ValueError:
        return "last line is not JSON: " + lines[-1]
    if not isinstance(res, dict):
        return "last line is not a JSON object"
    if res.get("correct") is not True:
        return "correct is %r, not true" % (res.get("correct"),)
    if not isinstance(res.get("attempted"), int) or res["attempted"] <= 0:
        return "attempted is %r, not a positive count" % (res.get("attempted"),)
    if res.get("failed") != 0:
        return "failed is %r, not 0" % (res.get("failed"),)
    return None


def main():
    if len(sys.argv) != 2:
        print("usage: perfbench_gate.py REPORT", file=sys.stderr)
        return 2
    with open(sys.argv[1]) as f:
        text = f.read()
    reason = verdict(text)
    if reason is not None:
        print("perfbench gate: %s: %s" % (sys.argv[1], reason), file=sys.stderr)
        return 1
    print([l for l in text.splitlines() if l.strip()][-1])
    return 0


if __name__ == "__main__":
    sys.exit(main())
