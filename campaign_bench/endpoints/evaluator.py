"""Stdlib-only external evaluator: one JSON request on stdin, JSON on stdout.

Usage: python3 evaluator.py --seed N --log PATH

Request ``{"property_id": ..., "smiles_list": [...]}`` of any length; reply
``{"values": [...], "errors": [[index, message], ...]}``. A value is a
deterministic function of the SMILES string. A seeded subset of SMILES
(chosen by SHA-256 of the seed and the string) gets a per-index error
instead, so a batched caller that fails a whole batch on one error loses
more candidates than one that fails only that index. Every request served
appends one line to the log file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys

ERROR_PERCENT = 12


def digest(seed: int, smiles: str) -> bytes:
    return hashlib.sha256(f"{seed}/{smiles}".encode()).digest()


def fails(seed: int, smiles: str) -> bool:
    return digest(seed, smiles)[0] * 100 // 256 < ERROR_PERCENT


def value(seed: int, smiles: str) -> float:
    """Heteroatoms and halogens score up, length scores down, plus a seeded jitter."""
    hetero = sum(smiles.count(ch) for ch in "NOno") + 2 * smiles.count("Cl") + smiles.count("F")
    jitter = int.from_bytes(digest(seed, smiles)[1:3], "big") / 65535.0
    return round(1.0 + 0.4 * hetero - 0.03 * len(smiles) + jitter, 6)


def respond(seed: int, request: dict) -> dict:
    values, errors = [], []
    for index, smiles in enumerate(request["smiles_list"]):
        if fails(seed, smiles):
            errors.append([index, f"fixture refuses {smiles}"])
            values.append(None)
        else:
            values.append(value(seed, smiles))
    return {"values": values, "errors": errors}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--log", required=True)
    args = parser.parse_args()
    request = json.load(sys.stdin)
    fd = os.open(args.log, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
    try:
        os.write(fd, b"evaluator\n")
    finally:
        os.close(fd)
    json.dump(respond(args.seed, request), sys.stdout, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
