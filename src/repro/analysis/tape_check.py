"""Static tape verifier: prove a recorded schedule safe before replay.

A recorded tape (``repro.nn.tape``) is a tiny IR: a flat list of kernel
entries over concrete numpy buffers, plus a liveness coloring that maps
logical intermediates onto shared physical storage.  End-to-end bitwise
parity on tested cases is the only evidence today that a given plan is
sound; this module adds a proof per tape, re-deriving the invariants
from the pre-remap entries and checking the planner's output against
them:

* **dataflow soundness** — SSA-style def-use over the recorded entry
  stream: every read of a tape-owned buffer is dominated by a write
  (``use-before-def``), no physical storage hosts two overlapping
  lifetimes (``lifetime-overlap``), tenants match their storage's
  shape/dtype (``storage-mismatch``), and pinned buffers — outputs,
  rng draws, view bases — are never recycled (``pinned-recycled``);
* **aliasing legality** — every replayed kernel is checked against its
  declarative :class:`~repro.nn.contracts.KernelContract`: unknown
  kernels are findings (``contract-missing``), and an ``out=`` that
  overlaps an input is only legal when the contract allows aliasing
  *and* the overlap is exact (``contract-alias``);
* **replay determinism** — taped rng buffers are refreshed before
  their first read and written by nothing else (``rng-stale-read``,
  ``rng-clobber``), and bound input buffers (compiled inference) are
  never written by the tape, so the runner's pre-replay ``np.copyto``
  refresh dominates every read (``bound-clobber``).

The verifier runs at every tape build (tooling that collects findings
turns it off with ``configure_verify(False)``) and under
``python -m repro.analysis --check-tapes``; what it cannot prove
statically, the runtime sanitizer (``REPRO_NN_SANITIZE=1``, see
``repro.nn.tape``) traps dynamically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..nn.contracts import contract_for, kernel_name
from ..nn.tape import TapePlan, _accepts_out, _entry_refs, _walk_arrays

__all__ = ["TapeFinding", "TapeVerificationError", "verify_plan",
           "verify_tape", "verify_or_raise", "TAPE_RULES"]

#: Every rule id the verifier can emit (the CLI and tests key on these).
TAPE_RULES = (
    "use-before-def", "lifetime-overlap", "storage-mismatch",
    "pinned-recycled", "contract-missing", "contract-kind",
    "contract-alias", "rng-stale-read", "rng-clobber", "bound-clobber",
)


@dataclass(frozen=True)
class TapeFinding:
    """One verification failure, anchored to a tape op index."""

    rule: str
    op_index: int
    message: str
    label: str = "tape"
    origin: Optional[str] = None

    def format(self) -> str:
        origin = f" ({self.origin})" if self.origin else ""
        return (f"tape {self.label!r} op {self.op_index}: "
                f"[{self.rule}] {self.message}{origin}")

    def to_dict(self) -> dict:
        return {"rule": self.rule, "op_index": self.op_index,
                "message": self.message, "label": self.label,
                "origin": self.origin}


class TapeVerificationError(RuntimeError):
    """Raised at tape build time when verification finds anything."""

    def __init__(self, findings: List[TapeFinding]):
        self.findings = findings
        lines = [f.format() for f in findings[:8]]
        if len(findings) > 8:
            lines.append(f"... and {len(findings) - 8} more")
        super().__init__(
            f"tape failed static verification "
            f"({len(findings)} finding(s)):\n  " + "\n  ".join(lines))


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------

def _root(a: np.ndarray) -> np.ndarray:
    while isinstance(a.base, np.ndarray):
        a = a.base
    return a


def _owned_roots(parts, owned: Dict[int, np.ndarray]) -> List[np.ndarray]:
    found: List[np.ndarray] = []

    def visit(a):
        base = _root(a)
        if id(base) in owned:
            found.append(base)
    _walk_arrays(parts, visit)
    return found


def _arrays_in(parts) -> List[np.ndarray]:
    found: List[np.ndarray] = []
    _walk_arrays(parts, found.append)
    return found


def _same_storage(a: np.ndarray, b: np.ndarray) -> bool:
    """True when ``a`` and ``b`` are the same view of the same memory —
    the only overlap shape an alias-tolerant contract accepts."""
    if a is b:
        return True
    return (a.ctypes.data == b.ctypes.data and a.shape == b.shape
            and a.strides == b.strides and a.dtype == b.dtype)


def _describe(arr: np.ndarray) -> str:
    return f"{arr.dtype.name}{list(arr.shape)}"


# ----------------------------------------------------------------------
# the checks
# ----------------------------------------------------------------------

class _Verifier:
    def __init__(self, plan: TapePlan):
        self.plan = plan
        self.findings: List[TapeFinding] = []

    def report(self, rule: str, index: int, message: str) -> None:
        origin = (self.plan.origins[index]
                  if 0 <= index < len(self.plan.origins) else None)
        self.findings.append(TapeFinding(
            rule=rule, op_index=index, message=message,
            label=self.plan.label, origin=origin))

    # -- (1) dataflow: every read dominated by a write -----------------
    def check_dataflow(self) -> None:
        owned = self.plan.owned
        written: set = set()
        for i, entry in enumerate(self.plan.pre_entries):
            reads, writes = _entry_refs(entry)
            for base in _owned_roots(reads, owned):
                if id(base) not in written:
                    self.report(
                        "use-before-def", i,
                        f"reads tape-owned buffer {_describe(base)} "
                        f"before any entry writes it")
                    written.add(id(base))  # report each buffer once
            for base in _owned_roots(writes, owned):
                written.add(id(base))

    # -- (1) coloring: lifetimes, pinning, storage shapes --------------
    def _derive_intervals(self):
        """Independently re-derive intervals and the must-pin set from
        the pre-remap entries (the same facts the planner computed —
        re-derived here so a planner bug cannot vouch for itself)."""
        plan = self.plan
        first: Dict[int, int] = {}
        last: Dict[int, int] = {}
        must_pin = {id(o) for o in plan.outs}
        must_pin |= {id(_root(o)) for o in plan.outs}
        for i, entry in enumerate(plan.pre_entries):
            if entry[0] == "rng":
                must_pin.add(id(entry[2]))
            reads, writes = _entry_refs(entry)
            for part in (reads, writes):
                for arr in _arrays_in(part):
                    base = _root(arr)
                    if id(base) not in plan.owned:
                        continue
                    if arr is not base:
                        must_pin.add(id(base))
                    first.setdefault(id(base), i)
                    last[id(base)] = i
        return first, last, must_pin

    def check_coloring(self) -> None:
        plan = self.plan
        first, last, must_pin = self._derive_intervals()
        for bid in plan.mapping:
            if bid in must_pin:
                self.report(
                    "pinned-recycled", first.get(bid, 0),
                    f"pinned buffer {_describe(plan.owned[bid])} was "
                    f"remapped onto shared storage")
        # Tenancy per physical storage, in lifetime order.
        tenants: Dict[int, List[Tuple[int, int, int]]] = {}
        storage: Dict[int, np.ndarray] = {}
        for bid in first:
            phys = plan.physical(bid)
            storage[id(phys)] = phys
            tenants.setdefault(id(phys), []).append(
                (first[bid], last[bid], bid))
            rec = plan.owned[bid]
            if phys.shape != rec.shape or phys.dtype != rec.dtype:
                self.report(
                    "storage-mismatch", first[bid],
                    f"buffer {_describe(rec)} colored onto storage "
                    f"{_describe(phys)}")
        for sid, spans in tenants.items():
            spans.sort()
            pinned_here = [bid for _, _, bid in spans if bid in must_pin]
            if pinned_here and len(spans) > 1:
                self.report(
                    "pinned-recycled", spans[0][0],
                    f"storage {_describe(storage[sid])} hosts a pinned "
                    f"buffer and {len(spans) - 1} other lifetime(s)")
                continue
            for (_, prev_last, prev_bid), (cur_first, _, cur_bid) in zip(
                    spans, spans[1:]):
                if cur_first <= prev_last:
                    self.report(
                        "lifetime-overlap", cur_first,
                        f"storage {_describe(storage[sid])} is live for "
                        f"two buffers at once (previous tenant in use "
                        f"through op {prev_last})")

    # -- (2) aliasing: every op against its kernel contract ------------
    def _check_out_aliasing(self, i: int, fn, args, out) -> None:
        contract = contract_for(fn)
        if contract is None:
            self.report(
                "contract-missing", i,
                f"kernel {kernel_name(fn)!r} has no declared contract")
            return
        if contract.kind == "inplace":
            self.report(
                "contract-kind", i,
                f"in-place kernel {contract.name!r} replayed with out=")
            return
        for arg in _arrays_in(args):
            if not np.may_share_memory(out, arg):
                continue
            if contract.out_may_alias_inputs and _same_storage(out, arg):
                continue
            why = ("partially overlaps" if not _same_storage(out, arg)
                   else "aliases")
            self.report(
                "contract-alias", i,
                f"out buffer {_describe(out)} {why} an input of "
                f"{contract.name!r}, whose contract "
                f"({contract.kind}) forbids it")

    def check_contracts(self) -> None:
        for i, entry in enumerate(self.plan.post_entries):
            tag = entry[0]
            if tag == "k" or (tag == "a" and _accepts_out(entry[1])):
                self._check_out_aliasing(i, entry[1], entry[2], entry[3])
            elif tag == "a":
                if contract_for(entry[1]) is None:
                    self.report(
                        "contract-missing", i,
                        f"kernel {kernel_name(entry[1])!r} has no "
                        f"declared contract")
            elif tag == "ip":
                fn, args = entry[1], entry[2]
                contract = contract_for(fn)
                if contract is None:
                    self.report(
                        "contract-missing", i,
                        f"kernel {kernel_name(fn)!r} has no declared "
                        f"contract")
                    continue
                if contract.kind != "inplace":
                    self.report(
                        "contract-kind", i,
                        f"kernel {contract.name!r} ({contract.kind}) "
                        f"recorded as an in-place mutator")
                    continue
                mutated = [args[j] for j in contract.mutates
                           if j < len(args)
                           and isinstance(args[j], np.ndarray)]
                others = [a for j, a in enumerate(args)
                          if j not in contract.mutates
                          and isinstance(a, np.ndarray)]
                for m in mutated:
                    for other in others:
                        if np.may_share_memory(m, other):
                            self.report(
                                "contract-alias", i,
                                f"in-place target {_describe(m)} of "
                                f"{contract.name!r} overlaps a "
                                f"read-only argument")
            elif tag == "g":
                src, key, res = entry[1], entry[2], entry[3]
                for other in (src,) + ((key,) if isinstance(
                        key, np.ndarray) else ()):
                    if np.may_share_memory(res, other):
                        self.report(
                            "contract-alias", i,
                            f"gather result {_describe(res)} overlaps "
                            f"its source")
            elif tag == "copy":
                dst, src = entry[1], entry[2]
                if (isinstance(src, np.ndarray)
                        and np.may_share_memory(dst, src)
                        and not _same_storage(dst, src)):
                    self.report(
                        "contract-alias", i,
                        f"copy destination {_describe(dst)} partially "
                        f"overlaps its source")

    # -- (3) replay determinism: rng stream + bound inputs -------------
    def check_rng(self) -> None:
        refreshed_at: Dict[int, int] = {}
        for i, entry in enumerate(self.plan.pre_entries):
            if entry[0] == "rng":
                refreshed_at.setdefault(id(entry[2]), i)
        if not refreshed_at:
            return
        for i, entry in enumerate(self.plan.pre_entries):
            reads, writes = _entry_refs(entry)
            for arr in _arrays_in(reads):
                refresh = refreshed_at.get(id(_root(arr)))
                if refresh is not None and i < refresh:
                    self.report(
                        "rng-stale-read", i,
                        f"reads rng buffer {_describe(arr)} before its "
                        f"refresh at op {refresh} — replay would "
                        f"consume a stale draw")
            if entry[0] == "rng":
                continue
            for arr in _arrays_in(writes):
                if id(_root(arr)) in refreshed_at:
                    self.report(
                        "rng-clobber", i,
                        f"writes rng buffer {_describe(arr)} outside "
                        f"its refresh entry")

    def check_binds(self) -> None:
        bind_ids = {id(b): b for b in self.plan.binds if b is not None}
        if not bind_ids:
            return
        for i, entry in enumerate(self.plan.post_entries):
            _, writes = _entry_refs(entry)
            for arr in _arrays_in(writes):
                bound = bind_ids.get(id(_root(arr)))
                if bound is not None:
                    self.report(
                        "bound-clobber", i,
                        f"writes bound input buffer {_describe(bound)}; "
                        f"the pre-replay refresh no longer dominates "
                        f"later reads")

    def run(self) -> List[TapeFinding]:
        self.check_dataflow()
        self.check_coloring()
        self.check_contracts()
        self.check_rng()
        self.check_binds()
        self.findings.sort(key=lambda f: (f.op_index, f.rule))
        return self.findings


# ----------------------------------------------------------------------
# entry points
# ----------------------------------------------------------------------

def verify_plan(plan: TapePlan) -> List[TapeFinding]:
    """Run every check over one :class:`~repro.nn.tape.TapePlan`."""
    return _Verifier(plan).run()


def verify_tape(tape) -> List[TapeFinding]:
    """Verify a built :class:`~repro.nn.tape.Tape`."""
    return verify_plan(tape.plan)


def verify_or_raise(tape) -> None:
    """Build-time hook: raise :class:`TapeVerificationError` on any
    finding (called from ``Tape.__init__`` on every recording)."""
    findings = verify_tape(tape)
    if findings:
        raise TapeVerificationError(findings)
