"""Assemble upper and lower bounds on the optimal keyed message length.

Every bound carries a machine-readable applicability tag and the key size
it is stated for, so consumers (and the consistency checks) only compare
bounds that actually apply together.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import dist
from .codec import ceil_log2
from .mechanism import Analysis

ALWAYS = "always"
REQ_DET = "requires: X=f(Y)"
REQ_MEMBER = "requires: member_Phat"
REQ_SMALL_Y = "requires: |Y|<=|X|"
REQ_CONVERSE = "requires: I(X;C)=0, H(Y|X,C)=0, X-Y-C"


@dataclass(frozen=True)
class BoundEntry:
    name: str
    bits: float
    applicability: str
    key_size: int


@dataclass(frozen=True)
class BoundsReport:
    upper: list[BoundEntry]
    lower: list[BoundEntry]
    improvement_flags: dict[str, bool]
    nonexistence: bool
    notes: list[str] = field(default_factory=list)


def upper_bounds(a: Analysis) -> list[BoundEntry]:
    """All achievable-length upper bounds that apply to this joint.

    The achieved-surrogate bound uses the synthesized H(U*) as a stand-in
    for the (unknown) minimum over all admissible disclosures, and says so
    in its name; the LP bounds use the H(U) bracket; the rest are
    closed-form.
    """
    d, b = a.d, a.bounds
    t, q = d.x_size, d.y_size
    logx = ceil_log2(t)
    sum_h = dist.sum_in_order(a.h_given_x)
    closed = 1.0 + min(sum_h, float(np.ceil(np.log2(t * (q - 1) + 1) - 1.0))) + logx
    out = []
    if b is not None:
        out.append(
            BoundEntry("two_part_achieved_surrogate", a.achieved_hu + 1.0 + logx, REQ_MEMBER, t)
        )
        out.append(BoundEntry("lp_strengthened", b.k_upper_strengthened + 1.0 + logx, REQ_MEMBER, t))
        out.append(BoundEntry("nullity_log", b.log_nullity_bound + 1.0 + logx, REQ_MEMBER, t))
    out.append(BoundEntry("sum_conditional_entropy", closed, ALWAYS, t))
    if a.x_det:
        out.append(
            BoundEntry(
                "deterministic_prior", float(ceil_log2(q - t + 1) + logx), REQ_DET, t
            )
        )
    if q <= t:
        out.append(BoundEntry("pad_y_direct", float(ceil_log2(q)), REQ_SMALL_Y, q))
    return out


def lower_bounds(a: Analysis, key_size: int) -> tuple[list[BoundEntry], bool]:
    """Converse bounds for the given key size, plus the nonexistence flag.

    The flag fires when X = f(Y) and the key alphabet is smaller than |X|:
    no zero-leakage lossless code exists at all in that regime.
    """
    d, det = a.d, a.x_det
    out = [
        BoundEntry(
            "max_conditional_entropy",
            float(a.h_given_x.max()),
            ALWAYS,
            key_size,
        )
    ]
    nonexistence = bool(det and key_size < d.x_size)
    if det and key_size >= d.x_size:
        out.append(BoundEntry("log_x_size", float(np.log2(d.x_size)), REQ_DET, key_size))
    if a.bounds is not None:
        out.append(
            BoundEntry("lp_conditional_converse", float(a.bounds.k_lower), REQ_CONVERSE, key_size)
        )
    return out, nonexistence


def improvement_flags(uppers: list[BoundEntry]) -> dict[str, bool]:
    """The two comparison claims: padding Y beats the closed-form bound when
    |Y| <= |X|, and the achieved two-part bound beats the deterministic
    prior when X = f(Y)."""
    by_name = {e.name: e.bits for e in uppers}
    flags = {"small_y_improves": False, "member_improves": False}
    if "pad_y_direct" in by_name:
        flags["small_y_improves"] = bool(by_name["pad_y_direct"] <= by_name["sum_conditional_entropy"] + 1e-9)
    if "two_part_achieved_surrogate" in by_name and "deterministic_prior" in by_name:
        flags["member_improves"] = bool(
            by_name["two_part_achieved_surrogate"] < by_name["deterministic_prior"]
        )
    return flags


def build_report(a: Analysis) -> BoundsReport:
    """The length report of one analysis, for the key size |X|; its notes
    include ``a.boundary_note``, which names the tolerance an LP failed at."""
    uppers = upper_bounds(a)
    lowers, nonexistence = lower_bounds(a, a.d.x_size)
    notes = [f"nullity(P_X|Y) = |Y| - |X| = {a.nullity}"] if a.x_det else []
    if a.boundary_note is not None:
        notes.append(a.boundary_note)
    return BoundsReport(
        upper=uppers,
        lower=lowers,
        improvement_flags=improvement_flags(uppers),
        nonexistence=nonexistence,
        notes=notes,
    )
