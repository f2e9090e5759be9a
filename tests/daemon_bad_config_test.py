#!/usr/bin/env python3
"""End-to-end check that invalid configs cannot kill wisync_sweepd --serve.

Each of the bad lines below once crashed the real daemon binary: an
out-of-range Gilbert-Elliott probability or loss percentage aborted in
a channel constructor, and a zero bridge width divided by zero on the
first bridge frame. The daemon must now answer each with a typed
{"error": ...} naming the field path, keep serving, answer the repeated
good line from its cache, and exit 0 on stdin EOF.

Usage: daemon_bad_config_test.py /path/to/wisync_sweepd
"""

import json
import subprocess
import sys


def fail(message):
    print("FAIL: " + message, file=sys.stderr)
    sys.exit(1)


def request_line(config):
    point = {"config": config,
             "workload": {"kind": "tightloop", "iterations": 2}}
    return json.dumps({"points": [point]}, separators=(",", ":"))


GOOD = {"kind": "WiSync", "cores": 16}

BAD = [
    ({"kind": "WiSync", "cores": 16,
      "wireless": {"burst": {"enabled": True, "pGoodToBad": 2.0}}},
     "points[0].config.wireless.burst.pGoodToBad"),
    ({"kind": "WiSync", "cores": 16, "chips": 2,
      "bridge": {"burst": {"enabled": True, "badLossPct": 150}}},
     "points[0].config.bridge.burst.badLossPct"),
    ({"kind": "WiSync", "cores": 16, "chips": 2,
      "bridge": {"widthBits": 0}},
     "points[0].config.bridge.widthBits"),
]


def main():
    if len(sys.argv) != 2:
        fail("usage: daemon_bad_config_test.py /path/to/wisync_sweepd")
    lines = [request_line(GOOD)]
    lines += [request_line(config) for config, _ in BAD]
    lines.append(request_line(GOOD))

    proc = subprocess.run(
        [sys.argv[1], "--serve", "--threads", "1"],
        input="\n".join(lines) + "\n", capture_output=True, text=True,
        timeout=120)
    if proc.returncode != 0:
        fail("daemon exit code %d (stderr: %s)" %
             (proc.returncode, proc.stderr.strip()))
    responses = [json.loads(r) for r in proc.stdout.splitlines()]
    if len(responses) != len(lines):
        fail("%d responses for %d lines" % (len(responses), len(lines)))

    first, last = responses[0], responses[-1]
    for response in (first, last):
        if "results" not in response or not response["results"][0]["ok"]:
            fail("good line not served: %s" % response)
    for (_, field), response in zip(BAD, responses[1:-1]):
        error = response.get("error")
        if error is None:
            fail("bad line accepted: %s" % response)
        if error.get("field") != field:
            fail("error names %r, expected %r" % (error.get("field"), field))
    if not last["results"][0]["cacheHit"] or \
            last["stats"]["simulated"] != 0:
        fail("repeated good line was not a cache hit: %s" % last)
    if last["results"][0]["result"] != first["results"][0]["result"]:
        fail("cache hit differs from the first answer")

    print("DAEMON BAD CONFIG TEST PASS (%d bad lines rejected)" % len(BAD))


if __name__ == "__main__":
    main()
