"""Stdlib-only external editing tool: one JSON request on stdin, text on stdout.

Usage: python3 tool.py --seed N --log PATH

Replies with three ``<SMILES>...</SMILES>`` spans made by deterministic
string edits of the request's SMILES; some edits give invalid strings on
purpose. A seeded share of requests (chosen by SHA-256 of the seed and the
request bytes) exits with status 3 instead, which the caller sees as an
unavailable tool. Every request served, failed or not, appends one line to
the log file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys

FAIL_PERCENT = 15

# Each edit maps a SMILES string to a new string; no chemistry is checked.
EDITS = (
    lambda s: s + "C",
    lambda s: s + "O",
    lambda s: s + "F",
    lambda s: s + "N",
    lambda s: s + "Cl",
    lambda s: s.replace("C", "N", 1),
    lambda s: s[::-1].replace("C", "O", 1)[::-1],
    lambda s: s.replace("c", "n", 1),
)
SPANS = 3


def digest(seed: int, payload: bytes) -> bytes:
    return hashlib.sha256(str(seed).encode() + b"/" + payload).digest()


def reply(seed: int, payload: bytes) -> str | None:
    """The reply text for one request, or None when this request fails."""
    key = digest(seed, payload)
    if key[0] * 100 // 256 < FAIL_PERCENT:
        return None
    smiles = json.loads(payload)["smiles"]
    picks = []
    for byte in key[1:]:
        edit = byte % len(EDITS)
        if edit not in picks:
            picks.append(edit)
        if len(picks) == SPANS:
            break
    return "".join(f"Candidate: <SMILES>{EDITS[i](smiles)}</SMILES>\n" for i in picks)


def log_request(path: str, kind: str) -> None:
    fd = os.open(path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
    try:
        os.write(fd, f"{kind}\n".encode())
    finally:
        os.close(fd)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--log", required=True)
    args = parser.parse_args()
    payload = sys.stdin.buffer.read()
    log_request(args.log, "tool")
    text = reply(args.seed, payload)
    if text is None:
        sys.stderr.write("tool fixture: seeded failure\n")
        return 3
    sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
