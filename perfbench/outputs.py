"""Op output checking against recorded reference results.

An op's output is the JSON text ``cli.main`` would print.  Its checked part
is ``exit_code`` plus ``results``; the state path, the summary line and
``wall_time_s`` are left out.  Integers, booleans, ``None`` and the text of
strings must match exactly; numbers inside strings and all other floats must
match to 1e-9 (relative above 1), the max-entropy value ``h_max`` and the gap
derived from it to 1e-6, its documented accuracy.
"""

from __future__ import annotations

import json
import os
import re

FLOAT_TOL = 1e-9
LOOSE_KEYS = {"h_max": 1e-6, "gap_simple_minus_h_max": 1e-6}

_NUMBER = re.compile(r"[-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?")

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")


def checked_part(text: str) -> dict:
    """The compared part of one op's encoded report."""
    report = json.loads(text)
    return {"exit_code": report.get("exit_code"), "results": report.get("results")}


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a))


def _compare_text(ref: str, out: str, tol: float) -> bool:
    if _NUMBER.sub("#", ref) != _NUMBER.sub("#", out):
        return False
    return all(
        _close(float(a), float(b), tol)
        for a, b in zip(_NUMBER.findall(ref), _NUMBER.findall(out))
    )


def compare(ref, out, path: str = "", tol: float = FLOAT_TOL) -> list:
    """Mismatches between a reference and an output, as ``path: detail`` strings."""
    if ref is None or isinstance(ref, (bool, int)):
        if type(out) is not type(ref) or out != ref:
            return [f"{path}: expected {ref!r}, got {out!r}"]
        return []
    if isinstance(ref, float):
        if not isinstance(out, float) or not _close(ref, out, tol):
            return [f"{path}: expected {ref!r}, got {out!r} (tolerance {tol:g})"]
        return []
    if isinstance(ref, str):
        if not isinstance(out, str) or not _compare_text(ref, out, tol):
            return [f"{path}: expected {ref!r}, got {out!r}"]
        return []
    if isinstance(ref, list):
        if not isinstance(out, list) or len(out) != len(ref):
            return [f"{path}: expected a list of {len(ref)}, got {out!r:.80}"]
        found = []
        for i, (r, o) in enumerate(zip(ref, out)):
            found += compare(r, o, f"{path}[{i}]", tol)
        return found
    if isinstance(ref, dict):
        if not isinstance(out, dict) or set(out) != set(ref):
            return [f"{path}: expected keys {sorted(ref)}, got {out!r:.80}"]
        found = []
        for key, r in ref.items():
            found += compare(r, out[key], f"{path}.{key}", LOOSE_KEYS.get(key, tol))
        return found
    raise TypeError(f"{path}: unexpected reference value {ref!r}")


def reference_path(workload: str) -> str:
    return os.path.join(REFERENCE_DIR, f"{workload}.json")


def load_reference(workload: str) -> dict:
    """``{"env": ..., "ops": {key: checked part or None}}``; None marks an op that failed when recorded."""
    with open(reference_path(workload), encoding="utf-8") as fh:
        return json.load(fh)


def save_reference(workload: str, env: dict, ops: dict) -> None:
    os.makedirs(REFERENCE_DIR, exist_ok=True)
    with open(reference_path(workload), "w", encoding="utf-8") as fh:
        json.dump({"env": env, "ops": ops}, fh, separators=(",", ":"), sort_keys=True)
        fh.write("\n")
