"""Plan/execute split: record warm training steps, replay them as tapes.

Allocation was never the bottleneck of a training step — Python
dispatch and graph re-walking per op were.  This module removes both.
The first time a training step runs for a given *shape signature*,
the eager autograd path executes normally while a :class:`Recorder`
captures every numpy kernel it launches — forward, backward, and
optimizer update — as a flat list of ``(kernel, inputs, out)``
entries.  Subsequent steps with the same signature *replay* that tape:
a tight loop over prebuilt closures, with no ``Tensor`` dunder
dispatch, no graph construction, and no backward walk.

Why replay is sound
-------------------
Replay re-executes the identical kernel sequence on the identical
buffers, so three invariants carry the bitwise-parity argument:

* **Stable storage.**  Parameters and optimizer moments are updated
  in place (the optimizers have no other update), the intermediates a
  recording allocates are owned by its tape alone, and step-varying
  values (batch indices, noise, labels) enter through
  *taped RNG entries* that refresh their buffer from the live
  ``np.random.Generator`` on every replay — consuming the stream in
  exactly the order the eager path would.
* **Same kernels.**  Every entry replays the same ufunc on the same
  operands (``np.add(a, b, out=buf)`` both times), so results are
  bit-identical to an eager step with the same RNG stream.
* **No hidden control flow.**  Compiled regions are data-independent
  by construction (the ``tape-purity`` analysis rule and the parity
  tests guard this); anything data-dependent — accept/reject loops,
  logging, ``loss.item()`` consumers — stays outside in the wrapper.

The planner then runs one pass over the recorded program, a
**liveness pass**: tape-owned intermediates are colored onto a
minimal set of physical buffers — a buffer is released at its last
use and its storage reused by later entries of the same shape, which
shrinks the replay working set.  Replay runs one prebuilt closure per
planned entry.  Wrapping adjacent closures in one more closure would
add a Python call, not remove one, so there is no fusion pass.

Every new tape is statically verified (``repro.analysis.tape_check``)
before it is cached; only tooling turns that off, through
:func:`configure_verify`.

Eager stays the oracle: ``REPRO_NN_TAPE=0`` (or
:func:`configure`) disables compilation entirely and every
``compiled_step`` falls through to the original eager body.
"""

from __future__ import annotations

import contextlib
import os
import sys
from collections import OrderedDict
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from ..telemetry.state import STATE as _TELEMETRY
from . import sanitize as _sanitize

__all__ = [
    "TAPE_ENV_VAR",
    "Recorder",
    "RECORDER",
    "Tape",
    "TapePlan",
    "TapeSanitizerError",
    "CompiledStep",
    "compiled_step",
    "CompiledInfer",
    "compiled_infer",
    "LiveRng",
    "bucket_size",
    "configure",
    "configure_verify",
    "verify_enabled",
    "tape_enabled",
    "trace_origins",
    "collect_tapes",
    "invalidate_tapes",
    "tape_stats",
    "reset_tape_stats",
    "ka",
    "k_gather",
    "taped_draw",
    "fresh_full",
    "fresh_zeros",
    "scratch",
]

#: Set to ``0`` / ``false`` / ``off`` to disable tape compilation and
#: keep every step on the eager path (the parity oracle).
TAPE_ENV_VAR = "REPRO_NN_TAPE"

_OFF_VALUES = frozenset({"0", "false", "off", "no"})

_forced: Optional[bool] = None
#: Build-time verification runs once per recording (never on the warm
#: replay path); a tape that failed it would silently corrupt
#: everything downstream, so it is always on outside tooling.
_verify = True


def tape_enabled() -> bool:
    """True when compiled steps may record/replay tapes."""
    if _forced is not None:
        return _forced
    return os.environ.get(TAPE_ENV_VAR, "1").strip().lower() not in _OFF_VALUES


def configure(enabled: Optional[bool]) -> None:
    """Force tapes on/off for this process (``None`` restores the
    environment-variable default).  Used by tests and the bench."""
    global _forced
    _forced = enabled if enabled is None else bool(enabled)


def verify_enabled() -> bool:
    """True when every newly built tape is statically verified."""
    return _verify


def configure_verify(enabled: Optional[bool]) -> None:
    """Turn build-time tape verification on/off (``None`` restores the
    default, on).  The smoke recorder turns it off to *collect*
    findings instead of raising on the first one; tests build known-bad
    tapes the same way."""
    global _verify
    _verify = True if enabled is None else bool(enabled)


class TapeSanitizerError(RuntimeError):
    """A sanitized replay touched released storage (write-after-release
    or read-of-poison).  The message names the tape, the op index, the
    kernel, and — when the tape was recorded with origin tracing — the
    source line that recorded the op."""


#: Process-wide generation counter: bumping it (``invalidate_tapes``)
#: orphans every recorded tape, forcing re-record.  Bumped when
#: parameter storage identity changes (``Module.load_state_dict``
#: reassigns ``p.data``, which a recorded tape captured by reference).
_GENERATION = 0


def invalidate_tapes() -> None:
    global _GENERATION
    _GENERATION += 1


# Aggregate counters for the bench / telemetry.  Training-step replays
# count as hits/misses; forward-only inference tapes keep their own
# pair so the bench's mixed-request-size gate sees only the sampler.
_STATS = {"hits": 0, "misses": 0, "infer_hits": 0, "infer_misses": 0,
          "bytes_recorded": 0, "bytes_planned": 0}


def tape_stats() -> Dict[str, int]:
    """Process-wide tape counters (replays, records, bytes)."""
    return dict(_STATS)


def reset_tape_stats() -> None:
    for key in _STATS:
        _STATS[key] = 0


# ----------------------------------------------------------------------
# Recording
# ----------------------------------------------------------------------
class Recorder:
    """Captures the kernel launches of one eager step.

    ``active`` is the single attribute every shim tests; keeping it a
    plain bool keeps the not-recording cost of a shimmed kernel to one
    attribute load.  Entry tags:

    ``("k", fn, args, out, kw)``
        executed as ``fn(*args, out=out, **kw)``
    ``("a", fn, args, res, kw)``
        allocating call ``res = fn(*args, **kw)``; replayed with
        ``out=res`` when ``fn`` supports it, else ``np.copyto``
    ``("g", src, key, res)``
        fancy-index gather ``res = src[key]``
    ``("ip", fn, args)``
        in-place mutator, e.g. ``np.add.at``
    ``("fill", buf, value)`` / ``("copy", dst, src)``
    ``("rng", draw, buf)``
        replay refreshes ``buf`` from the live generator via
        ``draw()`` — stream order is the recorded order
    ``("host", closure)``
        opaque host-state advance (e.g. Adam's step counter); must
        not touch tape-owned buffers

    When origin tracing is on (sanitizer mode, or explicitly via
    :func:`trace_origins`), every entry also records the source line
    that launched it, so verifier findings and sanitizer traps can name
    the offending call site, not just the op index.
    """

    __slots__ = ("active", "entries", "owned", "origins", "trace")

    def __init__(self):
        self.active = False
        self.entries: List[Tuple] = []
        self.owned: Dict[int, np.ndarray] = {}
        self.origins: List[Optional[str]] = []
        self.trace = False

    # -- lifecycle -----------------------------------------------------
    def begin(self) -> None:
        if self.active:
            raise RuntimeError("recorder is already active")
        self.entries = []
        self.owned = {}
        self.origins = []
        self.trace = _trace_origins or _sanitize.sanitize_enabled()
        self.active = True

    def end(self) -> List[Tuple]:
        self.active = False
        entries, self.entries = self.entries, []
        return entries

    def _origin(self) -> Optional[str]:
        return _capture_origin() if self.trace else None

    def _own(self, res: Any) -> None:
        if isinstance(res, np.ndarray) and res.base is None:
            self.owned.setdefault(id(res), res)

    # -- entry appends -------------------------------------------------
    def k(self, fn, args: Tuple, out: np.ndarray, kw: Optional[dict] = None):
        self.entries.append(("k", fn, args, out, kw))
        self.origins.append(self._origin())

    def a(self, fn, args: Tuple, res, kw: Optional[dict] = None):
        self._own(res)
        self.entries.append(("a", fn, args, res, kw))
        self.origins.append(self._origin())

    def gather(self, src: np.ndarray, key, res: np.ndarray) -> None:
        self._own(res)
        self.entries.append(("g", src, key, res))
        self.origins.append(self._origin())

    def inplace(self, fn, args: Tuple) -> None:
        self.entries.append(("ip", fn, args))
        self.origins.append(self._origin())

    def fill(self, buf: np.ndarray, value: float) -> None:
        self.entries.append(("fill", buf, value))
        self.origins.append(self._origin())

    def copy(self, dst: np.ndarray, src: np.ndarray) -> None:
        self.entries.append(("copy", dst, src))
        self.origins.append(self._origin())

    def rng(self, draw: Callable[[], np.ndarray], buf: np.ndarray) -> None:
        self.owned.pop(id(buf), None)  # pinned: the closure holds it
        self.entries.append(("rng", draw, buf))
        self.origins.append(self._origin())

    def host(self, closure: Callable[[], None]) -> None:
        self.entries.append(("host", closure))
        self.origins.append(self._origin())


#: The process-wide recorder every shimmed kernel reports to.
RECORDER = Recorder()

_trace_origins = False


def trace_origins(enabled: bool) -> None:
    """Record per-entry source origins on subsequent recordings even
    outside sanitizer mode (the ``--check-tapes`` smoke recorder turns
    this on so findings carry source lines)."""
    global _trace_origins
    _trace_origins = bool(enabled)


_NN_DIR = os.path.dirname(os.path.abspath(__file__))


def _capture_origin() -> Optional[str]:
    """Walk out of the engine's frames to the line that launched the
    recorded kernel: the first frame outside ``repro/nn`` is the
    origin, the innermost engine frame outside this file the ``via``."""
    try:
        frame = sys._getframe(3)
    except ValueError:  # pragma: no cover - stack shallower than the shims
        return None
    via = None
    while frame is not None:
        filename = frame.f_code.co_filename
        if not filename.startswith(_NN_DIR):
            origin = f"{filename}:{frame.f_lineno}"
            return f"{origin} (via {via})" if via else origin
        if os.path.basename(filename) != "tape.py":
            via = f"{os.path.basename(filename)}:{frame.f_lineno}"
        frame = frame.f_back
    return via


# ----------------------------------------------------------------------
# Shim helpers (the non-dunder kernel call sites use these)
# ----------------------------------------------------------------------
def ka(fn, *args, **kw):
    """Run an allocating kernel and record it when a tape is open."""
    res = fn(*args, **kw)
    if RECORDER.active:
        if not isinstance(res, np.ndarray):
            # Full reductions return numpy scalars, which replay cannot
            # refresh in place; promote to a 0-d array (same bits, and
            # downstream Tensor construction re-wraps either form).
            res = np.asarray(res)
        RECORDER.a(fn, args, res, kw or None)
    return res


def k_gather(arr: np.ndarray, key) -> np.ndarray:
    """Fancy-index gather ``arr[key]`` (a copy), replayed with the
    live key contents so taped batch indices select fresh rows."""
    res = arr[key]
    if RECORDER.active:
        RECORDER.gather(arr, key, res)
    return res


def taped_draw(draw: Callable[[], np.ndarray]) -> np.ndarray:
    """Execute an RNG draw; on replay the same ``draw`` closure runs
    against the live generator and refreshes the same buffer, so the
    stream is consumed in recorded order."""
    vals = draw()
    if RECORDER.active:
        RECORDER.rng(draw, vals)
    return vals


def fresh_full(shape, value: float) -> np.ndarray:
    """A ``value``-filled buffer that is re-filled on every replay."""
    buf = np.full(shape, value)
    if RECORDER.active:
        RECORDER._own(buf)
        RECORDER.fill(buf, value)
    return buf


def fresh_zeros(shape) -> np.ndarray:
    """A zeroed accumulator that is re-zeroed on every replay."""
    return fresh_full(shape, 0.0)


def scratch(shape) -> np.ndarray:
    """Uninitialized float64 storage for ``out=`` kernels; an open
    recording owns it, so the planner may color it like any other
    intermediate."""
    buf = np.empty(shape)
    if RECORDER.active:
        RECORDER._own(buf)
    return buf


# ----------------------------------------------------------------------
# Planning: liveness coloring + closure build
# ----------------------------------------------------------------------
# Callables that accept ``out=`` (ufuncs are detected by type).
_OUT_CAPABLE = {np.sum, np.max, np.min, np.stack, np.concatenate,
                np.clip, np.take, np.cumsum, np.add.reduce}


def _accepts_out(fn) -> bool:
    return isinstance(fn, np.ufunc) or fn in _OUT_CAPABLE


def _walk_arrays(obj, visit) -> None:
    if isinstance(obj, np.ndarray):
        visit(obj)
    elif isinstance(obj, (tuple, list)):
        for item in obj:
            _walk_arrays(item, visit)


def _map_arrays(obj, mapping: Dict[int, np.ndarray]):
    if isinstance(obj, np.ndarray):
        return mapping.get(id(obj), obj)
    if isinstance(obj, tuple):
        return tuple(_map_arrays(item, mapping) for item in obj)
    if isinstance(obj, list):
        return [_map_arrays(item, mapping) for item in obj]
    return obj


def _entry_refs(entry: Tuple):
    """(reads, writes) array lists of one structural entry."""
    tag = entry[0]
    if tag == "k":
        return [entry[2]], [entry[3]]
    if tag == "a":
        return [entry[2]], [entry[3]]
    if tag == "g":
        return [entry[1], entry[2]], [entry[3]]
    if tag == "ip":       # mutates args[0], reads the rest
        return [entry[2]], [entry[2][0]] if entry[2] else []
    if tag == "fill":
        return [], [entry[1]]
    if tag == "copy":
        return [entry[2]], [entry[1]]
    if tag == "rng":
        return [], [entry[2]]
    return [], []          # host


class TapePlan:
    """The planner's full output, retained for verification and the
    sanitizer: the recorded IR before and after storage remapping, and
    the ownership/pinning/interval metadata the coloring was derived
    from.  ``repro.analysis.tape_check`` re-derives
    the invariants from ``pre_entries`` and checks the coloring and the
    ``post_entries`` against them; the sanitized replay builds its
    poison/def schedule from the intervals.

    ``pre_entries`` and ``post_entries`` are index-aligned (remapping
    rewrites buffers, never reorders), and ``origins`` — when the tape
    was recorded with tracing on — aligns with both.
    """

    __slots__ = ("pre_entries", "post_entries", "owned", "pinned",
                 "first", "last", "mapping", "origins",
                 "binds", "outs", "scalar", "label",
                 "bytes_recorded", "bytes_planned")

    def __init__(self):
        self.pre_entries: List[Tuple] = []
        self.post_entries: List[Tuple] = []
        self.owned: Dict[int, np.ndarray] = {}
        self.pinned: set = set()
        self.first: Dict[int, int] = {}
        self.last: Dict[int, int] = {}
        self.mapping: Dict[int, np.ndarray] = {}
        self.origins: List[Optional[str]] = []
        self.binds: List[Optional[np.ndarray]] = []
        self.outs: List[np.ndarray] = []
        self.scalar = False
        self.label = "tape"
        self.bytes_recorded = 0
        self.bytes_planned = 0

    def physical(self, bid: int) -> np.ndarray:
        """Post-coloring storage of a logical (recorded) buffer id."""
        return self.mapping.get(bid, self.owned[bid])


def _plan_buffers(entries: List[Tuple], owned: Dict[int, np.ndarray],
                  outputs: List[np.ndarray]) -> TapePlan:
    """Color tape-owned intermediates onto shared physical buffers.

    A buffer's live interval runs from its defining entry to its last
    use; after that its physical storage is released into a per-
    (shape, dtype) free pool for later defs.  Reuse is deliberately
    conservative: a released buffer only backs defs at *strictly
    later* entries, so a kernel never writes a physical buffer one of
    its own operands still occupies (matmul forbids out-aliasing).
    Pinned (never remapped): step outputs, RNG-entry buffers (their
    refresh closures captured the array), and any buffer other
    entries reach through a numpy view — remapping the base would
    orphan the view.
    """
    first: Dict[int, int] = {}
    last: Dict[int, int] = {}

    def root(a: np.ndarray) -> np.ndarray:
        while isinstance(a.base, np.ndarray):
            a = a.base
        return a

    # Outputs pin their *storage*: a step output may be a view
    # (transpose/reshape/slice), and remapping its base would leave the
    # view reading whatever later def reused the buffer.
    pinned = {id(o) for o in outputs} | {id(root(o)) for o in outputs}

    for i, entry in enumerate(entries):
        if entry[0] == "rng":
            pinned.add(id(entry[2]))

        def visit(a, i=i):
            base = root(a)
            if id(base) not in owned:
                return
            if a is not base:
                pinned.add(id(base))
            first.setdefault(id(base), i)
            last[id(base)] = i

        reads, writes = _entry_refs(entry)
        _walk_arrays(reads, visit)
        _walk_arrays(writes, visit)

    bytes_recorded = sum(b.nbytes for b in owned.values())

    free: Dict[Tuple, List[np.ndarray]] = {}
    mapping: Dict[int, np.ndarray] = {}
    expiring: Dict[int, List[np.ndarray]] = {}
    planned: List[np.ndarray] = []
    # Unpinned buffers by defining entry, in first-use order.
    defs: Dict[int, List[int]] = {}
    for bid, start in first.items():
        if bid not in pinned:
            defs.setdefault(start, []).append(bid)

    for i in range(len(entries)):
        # Defs first (cannot grab storage released by this entry's own
        # reads), then releases scheduled at this index.
        for bid in defs.get(i, ()):
            buf = owned[bid]
            key = (buf.shape, buf.dtype.str)
            pool_ = free.get(key)
            phys = pool_.pop() if pool_ else None
            if phys is None:
                phys = buf    # first tenant keeps the recorded storage
                planned.append(phys)
            mapping[bid] = phys
            expiring.setdefault(last[bid], []).append(phys)
        for phys in expiring.pop(i, ()):
            free.setdefault((phys.shape, phys.dtype.str), []).append(phys)

    bytes_planned = (sum(b.nbytes for b in planned)
                     + sum(owned[bid].nbytes for bid in pinned
                           if bid in owned))

    pre_entries = entries
    if mapping:
        remapped = []
        for entry in entries:
            if entry[0] in ("rng", "host"):
                remapped.append(entry)
            else:
                remapped.append(tuple(_map_arrays(part, mapping)
                                      for part in entry))
        entries = remapped

    plan = TapePlan()
    plan.pre_entries = pre_entries
    plan.post_entries = entries
    plan.owned = dict(owned)
    plan.pinned = pinned
    plan.first = first
    plan.last = last
    plan.mapping = mapping
    plan.bytes_recorded = bytes_recorded
    plan.bytes_planned = bytes_planned
    return plan


def _make_closure(entry: Tuple) -> Callable[[], Any]:
    tag = entry[0]
    if tag == "k" or (tag == "a" and _accepts_out(entry[1])):
        fn, args, out, kw = entry[1], entry[2], entry[3], entry[4]
        if kw:
            return lambda: fn(*args, out=out, **kw)
        if len(args) == 1:
            a0 = args[0]
            return lambda: fn(a0, out=out)
        if len(args) == 2:
            a0, a1 = args
            return lambda: fn(a0, a1, out=out)
        return lambda: fn(*args, out=out)
    if tag == "a":
        fn, args, res, kw = entry[1], entry[2], entry[3], entry[4]
        if kw:
            return lambda: np.copyto(res, fn(*args, **kw), casting="unsafe")
        return lambda: np.copyto(res, fn(*args), casting="unsafe")
    if tag == "g":
        src, key, res = entry[1], entry[2], entry[3]
        return lambda: np.copyto(res, src[key], casting="unsafe")
    if tag == "ip":
        fn, args = entry[1], entry[2]
        return lambda: fn(*args)
    if tag == "fill":
        buf, value = entry[1], entry[2]
        return lambda: buf.fill(value)
    if tag == "copy":
        dst, src = entry[1], entry[2]
        return lambda: np.copyto(dst, src)
    if tag == "rng":
        draw, buf = entry[1], entry[2]
        return lambda: np.copyto(buf, draw(), casting="unsafe")
    return entry[1]  # host closure


#: Open tape-collection buckets (see :func:`collect_tapes`); every
#: finished ``Tape`` is appended to each.  Empty in normal operation.
_COLLECTORS: List[List["Tape"]] = []


@contextlib.contextmanager
def collect_tapes():
    """Collect every :class:`Tape` built inside the ``with`` block.

    The smoke recorder behind ``python -m repro.analysis --check-tapes``
    needs the tapes a model family records during ``fit``/``generate``
    — including tapes held by fit-local ``compiled_step`` objects that
    are unreachable once ``fit`` returns (STAN's per-field training
    steps).  Collection keeps a strong reference, so only use this for
    short verification runs.
    """
    bucket: List[Tape] = []
    _COLLECTORS.append(bucket)
    try:
        yield bucket
    finally:
        _COLLECTORS.remove(bucket)


class Tape:
    """A finalized, replayable step: closures plus output buffers.

    Construction runs the planner (liveness coloring), builds one
    closure per planned entry, then runs the static verifier
    (``repro.analysis.tape_check``), which proves the recorded schedule
    sound before it is ever replayed; a verifier finding raises
    ``TapeVerificationError`` instead of caching a corrupt tape.  The
    full :class:`TapePlan` is retained on ``self.plan`` for the
    verifier, the sanitizer, and tooling.
    """

    __slots__ = ("ops", "outs", "scalar", "generation",
                 "bytes_recorded", "bytes_planned", "plan",
                 "label", "_san")

    def __init__(self, entries: List[Tuple], owned: Dict[int, np.ndarray],
                 outs: List[np.ndarray], scalar: bool,
                 binds: Optional[List[Optional[np.ndarray]]] = None,
                 origins: Optional[List[Optional[str]]] = None,
                 label: str = "tape"):
        plan = _plan_buffers(entries, owned, outs)
        self.ops = [_make_closure(e) for e in plan.post_entries]
        plan.outs = outs
        plan.scalar = scalar
        plan.label = label
        plan.binds = list(binds) if binds else []
        if origins and len(origins) == len(plan.pre_entries):
            plan.origins = list(origins)
        self.plan = plan
        self.label = label
        self.outs = outs
        self.scalar = scalar
        self.generation = _GENERATION
        self.bytes_recorded = plan.bytes_recorded
        self.bytes_planned = plan.bytes_planned
        self._san = None
        if verify_enabled():
            # Lazy import: repro.analysis is pure tooling and only
            # needed once per recording, never on the replay path.
            from ..analysis.tape_check import verify_or_raise
            verify_or_raise(self)
        for bucket in _COLLECTORS:
            bucket.append(self)

    def replay(self) -> None:
        if _sanitize.sanitize_enabled():
            self._replay_sanitized()
            return
        for op in self.ops:
            op()

    # -- sanitized replay (REPRO_NN_SANITIZE=1) ------------------------
    def _build_sanitizer(self):
        """Precompute the poison/def schedule from the plan.

        Per entry: the rooted tape-owned storages it reads and writes.
        Per storage: the entry indices at which a liveness tenant is
        *defined* (writes there are legal re-activations) and the
        indices after which the storage expires (poison + mark free).
        Pinned buffers (outputs, rng, view bases) never expire.
        """
        plan = self.plan
        storages: Dict[int, np.ndarray] = {}
        allowed: Dict[int, set] = {}
        expiry: Dict[int, List[np.ndarray]] = {}
        poisonable: set = set()
        for bid in plan.first:
            phys = plan.physical(bid)
            sid = id(phys)
            storages[sid] = phys
            allowed.setdefault(sid, set()).add(plan.first[bid])
            if bid not in plan.pinned:
                expiry.setdefault(plan.last[bid], []).append(phys)
                poisonable.add(sid)

        def rooted(parts) -> frozenset:
            found = set()

            def visit(a):
                base = a
                while isinstance(base.base, np.ndarray):
                    base = base.base
                if id(base) in storages:
                    found.add(id(base))
            _walk_arrays(parts, visit)
            return frozenset(found)

        reads: List[frozenset] = []
        writes: List[frozenset] = []
        for entry in plan.post_entries:
            r, w = _entry_refs(entry)
            reads.append(rooted(r))
            writes.append(rooted(w))
        ops = [_make_closure(e) for e in plan.post_entries]
        self._san = (ops, reads, writes, allowed, expiry,
                     frozenset(poisonable), storages)
        return self._san

    def _trap(self, kind: str, index: int) -> "TapeSanitizerError":
        entry = self.plan.post_entries[index]
        fn = entry[1] if entry[0] in ("k", "a", "ip") else entry[0]
        name = getattr(fn, "__name__", str(fn))
        origin = (self.plan.origins[index] if self.plan.origins
                  else "unknown (record with REPRO_NN_SANITIZE=1 for "
                       "origin lines)")
        return TapeSanitizerError(
            f"tape {self.label!r}: {kind} at op {index} "
            f"({entry[0]}:{name}), recorded at {origin}")

    def _replay_sanitized(self) -> None:
        san = self._san or self._build_sanitizer()
        ops, reads, writes, allowed, expiry, poisonable, storages = san
        free = set(poisonable)
        for sid in free:
            _sanitize.poison(storages[sid])
        for i, op in enumerate(ops):
            if reads[i] & free:
                raise self._trap("read-of-poison", i)
            for sid in writes[i] & free:
                if i not in allowed.get(sid, ()):
                    raise self._trap("write-after-release", i)
                free.discard(sid)
            op()
            for phys in expiry.get(i, ()):
                _sanitize.poison(phys)
                free.add(id(phys))


# ----------------------------------------------------------------------
# The public wrappers
# ----------------------------------------------------------------------
#: Per-wrapper tape cache bound (LRU): chunked fine-tuning swaps data
#: arrays, and each distinct array identity records a fresh tape.
_MAX_TAPES = 4


class _Compiled:
    """The record path both public wrappers share.

    ``run(key, *args)`` replays the tape cached under ``key``, or runs
    the eager body under the recorder and caches the tape it leaves.
    The cache keeps the ``_MAX_TAPES`` most recently used keys: a
    replay moves its key to the back, and a recording past the bound
    evicts the front.  When tapes are disabled (``REPRO_NN_TAPE=0``)
    or a recording is already open (a compiled call nested inside
    another compiled region), the call falls through to the eager body.
    """

    __slots__ = ("fn", "label", "_tapes")

    #: (``_STATS`` key, telemetry counter) of a replay and a recording.
    _hit = ("hits", "nn.tape.hits")
    _miss = ("misses", "nn.tape.misses")

    def __init__(self, fn: Callable, label: str):
        self.fn = fn
        self.label = label
        self._tapes: "OrderedDict[Tuple, Tape]" = OrderedDict()

    def clear(self) -> None:
        """Drop every recorded tape and the storage it holds."""
        self._tapes.clear()

    def _body(self, args) -> Tuple[List[np.ndarray], bool]:
        """Run ``fn`` eagerly: its output arrays, and whether it
        returned one value rather than a list."""
        result = self.fn(*args)
        scalar = not isinstance(result, (list, tuple))
        tensors = [result] if scalar else list(result)
        outs = [t.data if hasattr(t, "data") else np.asarray(t)
                for t in tensors]
        return outs, scalar

    def _bind(self, args) -> Tuple[List[Optional[np.ndarray]], Tuple]:
        """The bound input buffers of a new recording, and the
        arguments its body runs on."""
        return [], args

    def _output(self, outs: List[np.ndarray], scalar: bool):
        arrays = [o.copy() for o in outs]
        return arrays[0] if scalar else arrays

    def run(self, key: Tuple, *args):
        if not tape_enabled() or RECORDER.active:
            return self._output(*self._body(args))
        tape = self._tapes.get(key)
        if tape is not None and tape.generation == _GENERATION:
            self._tapes.move_to_end(key)
            for buf, arg in zip(tape.plan.binds, args):
                if buf is not None:
                    np.copyto(buf, arg, casting="unsafe")
            tape.replay()
            _count(self._hit)
        else:
            tape = self._record(key, args)
        return self._output(tape.outs, tape.scalar)

    def _record(self, key: Tuple, args) -> Tape:
        binds, bound = self._bind(args)
        RECORDER.begin()
        try:
            outs, scalar = self._body(bound)
        finally:
            entries = RECORDER.end()
        tape = Tape(entries, RECORDER.owned, outs, scalar, binds=binds,
                    origins=RECORDER.origins, label=self.label)
        self._tapes.pop(key, None)   # a stale tape under this key
        if len(self._tapes) >= _MAX_TAPES:
            self._tapes.popitem(last=False)
        self._tapes[key] = tape
        _count(self._miss)
        _STATS["bytes_recorded"] += tape.bytes_recorded
        _STATS["bytes_planned"] += tape.bytes_planned
        return tape


def _count(counter: Tuple[str, str]) -> None:
    stat, name = counter
    _STATS[stat] += 1
    if _TELEMETRY.enabled:
        _TELEMETRY.registry.counter(name).inc()


class CompiledStep(_Compiled):
    """Compile a training-step function into replayable tapes.

    ``fn(*args)`` must run one full training step, must route every
    per-step random draw through :func:`taped_draw`, and must return
    the scalar loss ``Tensor`` (or a list of them).  ``run(key, ...)``
    returns the loss as float(s), or detached array copies with
    ``extract="array"``.  ``key`` is the step's shape signature — batch
    sizes plus the identities of the arrays the step closes over; any
    change records a fresh tape.
    """

    __slots__ = ("extract",)

    def __init__(self, fn: Callable, label: str = "step",
                 extract: str = "float"):
        super().__init__(fn, label)
        self.extract = extract

    def _output(self, outs: List[np.ndarray], scalar: bool):
        if self.extract == "array":
            return super()._output(outs, scalar)
        values = [float(o) for o in outs]
        return values[0] if scalar else values


def compiled_step(fn: Callable, label: str = "step",
                  extract: str = "float") -> CompiledStep:
    """Convenience constructor for call sites:
    ``self._c_disc = compiled_step(self._disc_core, "dg.disc")``."""
    return CompiledStep(fn, label=label, extract=extract)


# ----------------------------------------------------------------------
# Forward-only (no-grad) compilation: the generation path
# ----------------------------------------------------------------------
class LiveRng:
    """Swappable generator proxy for compiled inference.

    RNG entries on a tape capture the *object* their draw closure
    read from, so a sampler that accepts a per-call seed cannot hand
    its ``np.random.Generator`` to ``taped_draw`` directly — replays
    would consume a stale stream.  The sampler records against one
    persistent proxy instead and repoints ``.rng`` before every run;
    replayed draws then always hit the caller's live generator.
    """

    __slots__ = ("rng",)

    def __init__(self, rng: Optional[np.random.Generator] = None):
        self.rng = rng

    def normal(self, *args, **kw):
        return self.rng.normal(*args, **kw)

    def uniform(self, *args, **kw):
        return self.rng.uniform(*args, **kw)

    def integers(self, *args, **kw):
        return self.rng.integers(*args, **kw)

    def choice(self, *args, **kw):
        return self.rng.choice(*args, **kw)


#: Below this, batch sizes round up to the next power of two; above,
#: to the next multiple of it.  Keeps padding waste bounded (< 2x for
#: small requests, < _BUCKET_LINEAR extra rows for large ones) while
#: collapsing service-style request sizes onto a handful of tapes.
_BUCKET_POW2_MAX = 256
_BUCKET_LINEAR = 256


def bucket_size(n: int) -> int:
    """Round a requested sample count up to the bucket grid.

    Compiled inference records one tape per batch shape; without
    bucketing, every distinct request size would record (and evict)
    fresh tapes.  Bucket values are fixed points (``bucket_size(
    bucket_size(n)) == bucket_size(n)``), so pre-bucketed task sizes
    pass through unchanged.
    """
    if n < 1:
        raise ValueError("batch size must be positive")
    if n <= _BUCKET_POW2_MAX:
        return 1 << (n - 1).bit_length()
    return -(-n // _BUCKET_LINEAR) * _BUCKET_LINEAR


class CompiledInfer(_Compiled):
    """Compile a forward-only sampler body into replayable tapes.

    ``fn(*args)`` must run a no-grad forward — the wrapper opens
    ``no_grad()`` — routing every random draw through
    :func:`taped_draw` (via a :class:`LiveRng` when the generator
    varies per call) and returning the output ``Tensor``/array (or a
    list of them).  ``run(key, *args)`` returns detached array copies.

    Unlike a training step, a sampler has *data-dependent inputs*
    (condition rows, autoregressive state).  Any ``np.ndarray`` in
    ``args`` is therefore **bound**: at record time it is copied into
    a stable input buffer created *before* the recording opens (so the
    planner never remaps it), and every replay refreshes that buffer
    with ``np.copyto`` before running the schedule.  Non-array args
    are baked into the recorded kernels — encode them in ``key``.

    Eager fallback rules match :class:`CompiledStep`; with tapes off
    the body runs eagerly under the same ``no_grad()``, which keeps
    ``REPRO_NN_TAPE=0`` as the bitwise parity oracle.
    """

    __slots__ = ()

    _hit = ("infer_hits", "nn.tape.infer.hits")
    _miss = ("infer_misses", "nn.tape.infer.misses")

    def __init__(self, fn: Callable, label: str = "infer"):
        super().__init__(fn, label)

    def _body(self, args):
        from .autograd import no_grad
        with no_grad():
            return super()._body(args)

    def _bind(self, args):
        binds = [arg.copy() if isinstance(arg, np.ndarray) else None
                 for arg in args]
        bound = tuple(arg if buf is None else buf
                      for buf, arg in zip(binds, args))
        return binds, bound


def compiled_infer(fn: Callable, label: str = "infer") -> CompiledInfer:
    """Convenience constructor mirroring :func:`compiled_step`:
    ``self._c_infer = compiled_infer(self._infer_core, "dg.infer")``."""
    return CompiledInfer(fn, label=label)
