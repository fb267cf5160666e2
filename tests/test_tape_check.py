"""Tests for the tape IR verifier, the runtime memory sanitizer, the
kernel contract registry, and the registry-drift guard.

Three layers of evidence that a recorded schedule is safe:

* **property-based fuzz** — random Tensor programs compiled through
  the tape must verify clean *and* replay bitwise-identically to the
  eager oracle (``configure(False)`` is the naive no-reuse executor:
  every intermediate gets fresh storage, nothing is remapped);
* **seeded known-bad tapes** — hand-built or deliberately tampered
  plans (overlapping lifetimes, recycled pinned buffers, severed rng
  refreshes, out-aliasing matmul) must each be rejected with the
  offending rule and op index named;
* **runtime sanitizer** — a clean compiled fit replays silently under
  ``REPRO_NN_SANITIZE`` semantics, while an injected write-after-
  release or read-of-poison traps with the tape op index.
"""

import numpy as np
import pytest

from repro.analysis.tape_check import (
    TapeVerificationError,
    verify_plan,
    verify_tape,
)
from repro.nn import Dense, SGD, Tensor, grad, tensor
from repro.nn.contracts import (
    KernelContract,
    contract_for,
    declare_kernel,
    kernel_name,
)
from repro.nn.sanitize import configure_sanitize, is_poisoned, poison
from repro.nn.tape import (
    RECORDER,
    Tape,
    TapeSanitizerError,
    collect_tapes,
    compiled_step,
    configure,
    configure_verify,
    k_gather,
    ka,
    reset_tape_stats,
    taped_draw,
    trace_origins,
)


@pytest.fixture(autouse=True)
def clean_state():
    configure(True)
    configure_verify(None)
    configure_sanitize(None)
    reset_tape_stats()
    yield
    configure(None)
    configure_verify(None)
    configure_sanitize(None)
    trace_origins(False)
    reset_tape_stats()


def _bitwise_equal(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return (a.shape == b.shape and a.dtype == b.dtype
            and a.tobytes() == b.tobytes())


def _record_chain(x):
    """The canonical liveness chain: t1 dies at t2, t3 reuses t1."""
    RECORDER.begin()
    try:
        t1 = ka(np.multiply, x, 2.0)
        t2 = ka(np.add, t1, 1.0)
        t3 = ka(np.multiply, t2, 3.0)
        out = ka(np.add, t3, 0.5)
    finally:
        entries = RECORDER.end()
    return entries, (t1, t2, t3, out)


def _rules(findings):
    return {f.rule for f in findings}


# ----------------------------------------------------------------------
# Verifier: clean tapes
# ----------------------------------------------------------------------

class TestVerifierClean:
    def test_recorded_chain_verifies_clean(self):
        entries, (_, _, _, out) = _record_chain(np.arange(8.0))
        tape = Tape(entries, RECORDER.owned, [out], scalar=False)
        assert verify_tape(tape) == []
        assert tape.plan.mapping  # the planner did reuse storage

    def test_exact_alias_elementwise_is_legal(self):
        # The optimizer's in-place updates (np.multiply(v, m, out=v))
        # are the alias pattern the contracts must keep legal.
        x = np.arange(8.0)
        m = np.zeros(8)
        entries = [
            ("k", np.multiply, (x, 2.0), m, None),
            ("k", np.multiply, (m, 0.9), m, None),
        ]
        tape = Tape(entries, {id(m): m}, [m], scalar=False)
        assert verify_tape(tape) == []

    def test_verification_runs_at_build_by_default(self):
        m = np.zeros((4, 4))
        w = np.arange(16.0).reshape(4, 4)
        entries = [
            ("k", np.add, (w, 0.0), m, None),
            ("k", np.matmul, (m, w), m, None),
        ]
        with pytest.raises(TapeVerificationError) as excinfo:
            Tape(entries, {id(m): m}, [m], scalar=False)
        assert "contract-alias" in str(excinfo.value)
        assert "op 1" in str(excinfo.value)


# ----------------------------------------------------------------------
# Verifier: seeded known-bad tapes
# ----------------------------------------------------------------------

class TestVerifierRejects:
    def _tampered_chain(self):
        entries, bufs = _record_chain(np.arange(8.0))
        tape = Tape(entries, RECORDER.owned, [bufs[3]], scalar=False)
        return tape, bufs

    def test_overlapping_lifetimes_on_one_storage(self):
        tape, (t1, t2, _, _) = self._tampered_chain()
        # t1 is live through entry 1, where t2 is defined: coloring t2
        # onto t1's storage overlaps the two lifetimes.
        tape.plan.mapping[id(t2)] = t1
        findings = verify_plan(tape.plan)
        assert "lifetime-overlap" in _rules(findings)
        bad = [f for f in findings if f.rule == "lifetime-overlap"]
        assert bad[0].op_index == 1

    def test_pinned_output_remapped(self):
        tape, (_, _, _, out) = self._tampered_chain()
        tape.plan.mapping[id(out)] = np.empty_like(out)
        assert "pinned-recycled" in _rules(verify_plan(tape.plan))

    def test_storage_shape_mismatch(self):
        tape, (_, t2, _, _) = self._tampered_chain()
        tape.plan.mapping[id(t2)] = np.empty(3)
        assert "storage-mismatch" in _rules(verify_plan(tape.plan))

    def test_use_before_def(self):
        a, b = np.zeros(8), np.zeros(8)
        configure_verify(False)
        tape = Tape([("k", np.add, (a, 1.0), b, None)],
                    {id(a): a, id(b): b}, [b], scalar=False)
        findings = verify_plan(tape.plan)
        assert "use-before-def" in _rules(findings)
        assert findings[0].op_index == 0

    def test_severed_rng_refresh(self):
        # The draw is consumed *before* its refresh entry: replay would
        # read last step's stale values.
        rng = np.random.default_rng(0)
        r, a = rng.uniform(size=8), np.zeros(8)
        entries = [
            ("k", np.multiply, (r, 2.0), a, None),
            ("rng", lambda: rng.uniform(size=8), r),
        ]
        configure_verify(False)
        tape = Tape(entries, {id(r): r, id(a): a}, [a], scalar=False)
        findings = verify_plan(tape.plan)
        assert "rng-stale-read" in _rules(findings)
        assert any(f.op_index == 0 for f in findings
                   if f.rule == "rng-stale-read")

    def test_rng_buffer_clobbered_by_kernel(self):
        rng = np.random.default_rng(0)
        r = rng.uniform(size=8)
        x = np.arange(8.0)
        entries = [
            ("rng", lambda: rng.uniform(size=8), r),
            ("k", np.multiply, (x, 2.0), r, None),
        ]
        configure_verify(False)
        tape = Tape(entries, {id(r): r}, [r], scalar=False)
        findings = verify_plan(tape.plan)
        assert "rng-clobber" in _rules(findings)
        assert any(f.op_index == 1 for f in findings
                   if f.rule == "rng-clobber")

    def test_matmul_out_aliasing_input(self):
        m = np.zeros((4, 4))
        w = np.arange(16.0).reshape(4, 4)
        entries = [
            ("k", np.add, (w, 0.0), m, None),
            ("k", np.matmul, (m, w), m, None),
        ]
        configure_verify(False)
        tape = Tape(entries, {id(m): m}, [m], scalar=False)
        findings = verify_plan(tape.plan)
        bad = [f for f in findings if f.rule == "contract-alias"]
        assert bad and bad[0].op_index == 1
        assert "matmul" in bad[0].message

    def test_partial_overlap_is_illegal_even_for_elementwise(self):
        m = np.zeros((4, 4))
        x = np.arange(16.0).reshape(4, 4)
        entries = [
            ("k", np.add, (x, 0.0), m, None),
            ("k", np.multiply, (m[:, 1:3], 2.0), m[:, 0:2], None),
        ]
        configure_verify(False)
        tape = Tape(entries, {id(m): m}, [m], scalar=False)
        findings = verify_plan(tape.plan)
        bad = [f for f in findings if f.rule == "contract-alias"]
        assert bad and bad[0].op_index == 1
        assert "partially overlaps" in bad[0].message

    def test_undeclared_kernel_is_a_finding(self):
        a, b = np.arange(8.0), np.zeros(8)
        x = np.ones(8)
        entries = [
            ("k", np.add, (x, 1.0), a, None),
            ("k", np.hypot, (a, a), b, None),
        ]
        configure_verify(False)
        tape = Tape(entries, {id(a): a, id(b): b}, [b], scalar=False)
        findings = verify_plan(tape.plan)
        bad = [f for f in findings if f.rule == "contract-missing"]
        assert bad and bad[0].op_index == 1
        assert "hypot" in bad[0].message

    def test_bound_input_written_by_tape(self):
        c = np.zeros(8)
        x = np.arange(8.0)
        configure_verify(False)
        tape = Tape([("k", np.multiply, (x, 2.0), c, None)],
                    {id(c): c}, [c], scalar=False, binds=[c])
        findings = verify_plan(tape.plan)
        bad = [f for f in findings if f.rule == "bound-clobber"]
        assert bad and bad[0].op_index == 0


# ----------------------------------------------------------------------
# Property fuzz: random programs verify clean + match the naive executor
# ----------------------------------------------------------------------

def _random_core(spec, bufs):
    """Build a step closure from a program spec (list of (kind, *idx))."""
    def core():
        leaves = [Tensor(b, requires_grad=True) for b in bufs]
        vals = list(leaves)
        for op in spec:
            if op[0] == "unary":
                _, which, src = op
                t = vals[src]
                vals.append({
                    "tanh": t.tanh, "sigmoid": t.sigmoid,
                    "relu": t.relu, "square": t.square,
                    "abs": t.abs,
                }[which]())
            else:
                _, which, lhs, rhs = op
                a, b = vals[lhs], vals[rhs]
                vals.append({
                    "add": lambda: a + b, "sub": lambda: a - b,
                    "mul": lambda: a * b,
                }[which]())
        loss = (vals[-1] * vals[-1]).mean() + sum(
            (v * v).sum() * 1e-3 for v in vals[len(leaves):-1])
        grads = grad(loss, leaves)
        return [vals[-1], loss] + list(grads)
    return core


def _random_spec(rng, n_leaves, length):
    spec = []
    count = n_leaves
    for _ in range(length):
        if rng.random() < 0.5:
            spec.append(("unary",
                         rng.choice(["tanh", "sigmoid", "relu",
                                     "square", "abs"]),
                         int(rng.integers(count))))
        else:
            spec.append(("binary", rng.choice(["add", "sub", "mul"]),
                         int(rng.integers(count)),
                         int(rng.integers(count))))
        count += 1
    return spec


def test_fuzz_random_programs_verify_and_match_naive_executor():
    any_reuse = False
    for seed in range(12):
        rng = np.random.default_rng(1000 + seed)
        n_leaves = int(rng.integers(2, 4))
        spec = _random_spec(rng, n_leaves, int(rng.integers(3, 9)))
        base = [rng.uniform(-1, 1, size=(4, 5)) for _ in range(n_leaves)]

        # Naive no-reuse executor: eager mode allocates fresh storage
        # for every intermediate and never remaps anything.
        configure(False)
        bufs = [a.copy() for a in base]
        core = _random_core(spec, bufs)
        eager_steps = []
        for s in range(3):
            for buf, a in zip(bufs, base):
                np.copyto(buf, a * (1.0 + 0.25 * s))
            eager_steps.append([np.copy(r.data) for r in core()])

        configure(True)
        bufs2 = [a.copy() for a in base]
        step = compiled_step(_random_core(spec, bufs2),
                             f"fuzz.{seed}", extract="array")
        with collect_tapes() as tapes:
            taped_steps = []
            for s in range(3):
                for buf, a in zip(bufs2, base):
                    np.copyto(buf, a * (1.0 + 0.25 * s))
                taped_steps.append(step.run((seed,)))

        assert len(tapes) == 1
        assert verify_tape(tapes[0]) == [], seed
        any_reuse = any_reuse or bool(tapes[0].plan.mapping)
        for eager, taped in zip(eager_steps, taped_steps):
            for a, b in zip(eager, taped):
                assert _bitwise_equal(a, b), seed
    # The fuzz must actually exercise the liveness planner, not just
    # trivially un-reusable programs.
    assert any_reuse


# ----------------------------------------------------------------------
# Origin tracing and collection
# ----------------------------------------------------------------------

class TestOriginsAndCollection:
    def test_trace_origins_records_launch_sites(self):
        trace_origins(True)
        entries, (_, _, _, out) = _record_chain(np.arange(8.0))
        origins = RECORDER.origins
        tape = Tape(entries, RECORDER.owned, [out], scalar=False,
                    origins=origins)
        assert len(tape.plan.origins) == len(tape.plan.pre_entries)
        assert all(o and "test_tape_check.py" in o
                   for o in tape.plan.origins)

    def test_collect_tapes_harvests_fit_local_tapes(self):
        def core():
            t = Tensor(np.arange(6.0), requires_grad=True)
            loss = (t * t).sum()
            grad(loss, [t])
            return loss

        with collect_tapes() as tapes:
            step = compiled_step(core, "collect.demo")
            step.run(("a",))
            step.run(("a",))
        assert len(tapes) == 1  # one recording, one replay


# ----------------------------------------------------------------------
# Kernel contract registry
# ----------------------------------------------------------------------

class TestContracts:
    def test_kernel_name_handles_ufunc_methods_and_aliases(self):
        assert kernel_name(np.abs) == "absolute"
        assert kernel_name(np.add.at) == "add.at"
        assert kernel_name(np.add.reduce) == "add.reduce"
        assert kernel_name(np.clip) == "clip"

    def test_known_contracts(self):
        assert contract_for(np.multiply).out_may_alias_inputs
        assert contract_for(np.matmul).kind == "gemm"
        assert not contract_for(np.matmul).out_may_alias_inputs
        assert contract_for(np.add.at).kind == "inplace"
        assert contract_for(np.add.at).mutates == (0,)
        assert contract_for(np.hypot) is None

    def test_redeclaration_identical_is_idempotent(self):
        declare_kernel(np.multiply, "elementwise",
                       out_may_alias_inputs=True)

    def test_conflicting_redeclaration_raises(self):
        with pytest.raises(ValueError):
            declare_kernel(np.multiply, "reduction")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            KernelContract(name="bogus", kind="weird")


# ----------------------------------------------------------------------
# Registry-drift guard
# ----------------------------------------------------------------------

class TestRegistrySync:
    def test_repo_registries_are_in_sync(self):
        from repro.analysis.registry_sync import check_registry_sync
        report = check_registry_sync()
        assert report["issues"] == [], report["issues"]
        assert "matmul" in report["kernels_launched"]
        assert "add.at" in report["kernels_launched"]

    def test_scan_finds_launch_sites(self):
        from repro.analysis.registry_sync import scan_kernel_launches
        sites = scan_kernel_launches()
        assert any(path.endswith("optim.py")
                   for path, _ in sites["multiply"])

    def test_new_tensor_method_without_registration_is_flagged(self):
        from repro.analysis.registry_sync import check_registry_sync
        Tensor.brand_new_op = lambda self: self
        try:
            issues = check_registry_sync()["issues"]
        finally:
            del Tensor.brand_new_op
        assert any(i["kind"] == "unregistered-op"
                   and i["name"] == "Tensor.brand_new_op"
                   for i in issues)

    def test_registered_op_without_surface_mapping_is_flagged(self):
        from repro.analysis import OpSpec, register_op, unregister_op
        from repro.analysis.registry_sync import check_registry_sync
        register_op(OpSpec(
            name="phantom_op",
            make_inputs=lambda: [np.ones((2, 2))],
            apply=lambda xs: xs[0]))
        try:
            issues = check_registry_sync()["issues"]
        finally:
            unregister_op("phantom_op")
        assert any(i["kind"] == "unmapped-op"
                   and i["name"] == "phantom_op" for i in issues)


# ----------------------------------------------------------------------
# Tape smoke harness
# ----------------------------------------------------------------------

class TestTapeSmoke:
    def test_rowgan_family_smoke_is_clean(self):
        from repro.analysis.tape_smoke import run_tape_checks
        report = run_tape_checks(families=["rowgan"])
        assert report["findings"] == 0
        assert report["tapes_verified"] >= 3  # critic, generator, infer

    def test_unknown_family_rejected(self):
        from repro.analysis.tape_smoke import run_tape_checks
        with pytest.raises(ValueError):
            run_tape_checks(families=["nope"])


# ----------------------------------------------------------------------
# Runtime sanitizer
# ----------------------------------------------------------------------

class TestSanitizer:
    def test_poison_marks_float64_buffers_only(self):
        buf = np.ones(16)
        mask = np.ones(16, dtype=bool)
        poison(buf)
        poison(mask)
        assert is_poisoned(buf)
        assert not is_poisoned(np.full(16, np.nan))  # plain NaN is not
        assert mask.all()  # no NaN payload fits a bool buffer

    def test_clean_replay_is_silent_and_bitwise_identical(self):
        x = np.arange(8.0)
        entries, (_, _, _, out) = _record_chain(x)
        tape = Tape(entries, RECORDER.owned, [out], scalar=False)
        configure_sanitize(True)
        np.copyto(x, np.arange(8.0)[::-1])
        tape.replay()
        expected = ((x * 2.0) + 1.0) * 3.0 + 0.5
        assert _bitwise_equal(out, expected)

    def test_sanitized_training_matches_eager(self):
        def run(sanitize):
            configure(sanitize is not None)
            if sanitize is not None:
                configure_sanitize(sanitize)
            rng = np.random.default_rng(3)
            data = rng.uniform(size=(32, 4))
            target = rng.uniform(size=(32, 3))
            net = Dense(4, 3, "tanh", rng=np.random.default_rng(4))
            opt = SGD(net.parameters(), lr=0.1)
            draw = np.random.default_rng(5)

            def core(b):
                idx = taped_draw(
                    lambda: draw.integers(0, len(data), size=b))
                x = tensor(k_gather(data, idx))
                y = tensor(k_gather(target, idx))
                loss = (net(x) - y).square().mean()
                opt.step(grad(loss, net.parameters()))
                return loss

            step = compiled_step(core, "san.train")
            losses = [step.run((8,), 8) for _ in range(4)]
            return losses, net.state_dict()

        eager_losses, eager_state = run(None)
        san_losses, san_state = run(True)
        assert eager_losses == san_losses
        for key in eager_state:
            assert _bitwise_equal(eager_state[key], san_state[key])

    def test_injected_write_after_release_traps(self):
        x = np.arange(8.0)
        entries, (t1, _, _, out) = _record_chain(x)
        tape = Tape(entries, RECORDER.owned, [out], scalar=False)
        dead = tape.plan.physical(id(t1))
        tape.plan.post_entries.append(
            ("k", np.multiply, (x, 1.0), dead, None))
        configure_sanitize(True)
        with pytest.raises(TapeSanitizerError) as excinfo:
            tape.replay()
        assert "write-after-release" in str(excinfo.value)
        assert "op 4" in str(excinfo.value)

    def test_injected_read_of_poison_traps(self):
        x = np.arange(8.0)
        entries, (t1, _, _, out) = _record_chain(x)
        tape = Tape(entries, RECORDER.owned, [out], scalar=False)
        dead = tape.plan.physical(id(t1))
        scratch = np.empty_like(dead)
        tape.plan.post_entries.append(
            ("k", np.multiply, (dead, 1.0), scratch, None))
        configure_sanitize(True)
        with pytest.raises(TapeSanitizerError) as excinfo:
            tape.replay()
        assert "read-of-poison" in str(excinfo.value)
        assert "op 4" in str(excinfo.value)

    def test_sanitizer_off_uses_fast_path(self):
        configure_sanitize(False)  # force off even under REPRO_NN_SANITIZE=1
        x = np.arange(8.0)
        entries, (_, _, _, out) = _record_chain(x)
        tape = Tape(entries, RECORDER.owned, [out], scalar=False)
        tape.replay()
        assert tape._san is None  # sanitizer schedule never built
