"""Independent checks of one instance's `code` document.

Nothing here calls into ``zeroleak``: the document is parsed afresh and the
zero-leakage conditions are recomputed with numpy from the serialized joint
and mechanism, so a program that reports ``ok`` without earning it fails.
"""

from __future__ import annotations

import numpy as np

LEAK_TOL = {"two-part": 1e-9, "direct-pad": 1e-12}
COLUMN_TOL = 1e-7  # P_{X|Y} p = P_X per column, and the mixture reproduces P_Y
JOINT_TOL = 1e-12  # the document's joint is the input's joint
LENGTH_SPREAD_TOL = 1e-12  # per-key expected lengths are equal


def parse_document(text: str) -> dict[str, str]:
    doc = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line and not line.startswith("[") and "=" in line:
            key, _, value = line.partition("=")
            doc[key.strip()] = value.strip()
    return doc


def _floats(value: str) -> np.ndarray:
    return np.array([float(v) for v in value.split()])


def check_code_document(text: str, joint: np.ndarray) -> tuple[list[str], float | None, int | None]:
    """Return (problems, shortest audited expected length in bits, |U|)."""
    doc = parse_document(text)
    problems: list[str] = []
    schemes = doc.get("schemes", "").split()
    if not schemes:
        return ["document lists no scheme"], None, None
    x_size, y_size = int(doc["x_size"]), int(doc["y_size"])
    p = np.array([_floats(doc[f"joint.{x}"]) for x in range(x_size)])
    if p.shape != joint.shape or np.abs(p - joint).max() > JOINT_TOL:
        problems.append("document joint differs from the input joint")
    if p.shape != (x_size, y_size):
        return problems + [f"joint block is {p.shape}, header says {(x_size, y_size)}"], None, None
    p_x, p_y = p.sum(axis=1), p.sum(axis=0)
    kernel = p / p_y[None, :]
    best, u_size = None, None
    for scheme in schemes:
        before = len(problems)
        if doc.get(f"{scheme}.audit.ok") != "true":
            problems.append(f"{scheme}: audit.ok is not true")
        mi = float(doc[f"{scheme}.audit.mi_c_x"])
        if not mi <= LEAK_TOL[scheme]:
            problems.append(f"{scheme}: I(C;X) = {mi:.3g}")
        if float(doc[f"{scheme}.audit.lossless_prob"]) != 1.0:
            problems.append(f"{scheme}: lossless_prob = {doc[f'{scheme}.audit.lossless_prob']}")
        lengths = _floats(doc[f"{scheme}.audit.per_key_expected_length"])
        if np.ptp(lengths) > LENGTH_SPREAD_TOL:
            problems.append(f"{scheme}: per-key lengths differ by {np.ptp(lengths):.3g}")
        if scheme == "two-part":
            u_size = int(doc["two-part.u_size"])
            p_u = _floats(doc["two-part.p_u"])
            cols = np.array([_floats(doc[f"two-part.p_y_given_u.{u}"]) for u in range(u_size)]).T
            leak = np.abs(kernel @ cols - p_x[:, None]).max()
            if not leak <= COLUMN_TOL:
                problems.append(f"two-part: a column of P(Y|U) leaks X by {leak:.3g}")
            mix = np.abs(cols @ p_u - p_y).max()
            if not mix <= COLUMN_TOL:
                problems.append(f"two-part: the mixture misses P_Y by {mix:.3g}")
        if len(problems) == before and (best is None or lengths.max() < best):
            best = float(lengths.max())
    return problems, best, u_size


def check_analysis(text: str, schemes_coded: list[str]) -> list[str]:
    doc = parse_document(text)
    member = doc.get("member")
    if member not in ("true", "false"):
        return ["analyze printed no membership verdict"]
    if "two-part" in schemes_coded and member != "true":
        return ["two-part was coded for a joint analyze calls a non-member"]
    return []
