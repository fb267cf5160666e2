"""Tests for repro.analysis: rule fixtures, suppressions, baselines,
the CLI contract, and the double-backprop graph checker.

Each rule has one positive and one negative fixture under
``tests/analysis_fixtures/`` (a directory the walker never descends
into); the fixtures are fed through :func:`check_source` with a
synthetic repo path so path-scoped rules (numerical-stability) fire.
"""

import json
import os

import numpy as np
import pytest

from repro.analysis import (
    Finding,
    OpSpec,
    apply_baseline,
    baseline_counts,
    check_double_backprop,
    check_op,
    check_paths,
    check_source,
    iter_python_files,
    load_baseline,
    main,
    register_op,
    registered_op_names,
    rule_ids,
    save_baseline,
    unregister_op,
)

FIXTURE_DIR = os.path.join(os.path.dirname(__file__), "analysis_fixtures")
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: fixture stem -> (rule id, synthetic path the fixture is linted as).
#: numerical-stability only applies inside loss/metric modules, so its
#: fixtures borrow a repro/metrics path; the rest use a neutral one.
RULE_CASES = {
    "determinism": ("determinism", "src/repro/core/fixture.py"),
    "shm_hygiene": ("shm-hygiene", "src/repro/core/fixture.py"),
    "task_statelessness": ("task-statelessness", "src/repro/core/fixture.py"),
    "manifest_statelessness": ("task-statelessness",
                               "src/repro/core/fixture.py"),
    "numerical_stability": ("numerical-stability",
                            "src/repro/metrics/fixture.py"),
    "api_hygiene": ("api-hygiene", "src/repro/core/fixture.py"),
    "tape_purity": ("tape-purity", "src/repro/core/fixture.py"),
}


def read_fixture(name: str) -> str:
    with open(os.path.join(FIXTURE_DIR, name), encoding="utf-8") as handle:
        return handle.read()


class TestRuleFixtures:
    @pytest.mark.parametrize("stem", sorted(RULE_CASES))
    def test_bad_fixture_yields_exactly_one_finding(self, stem):
        rule_id, path = RULE_CASES[stem]
        findings = check_source(read_fixture(f"{stem}_bad.py"), path=path)
        assert len(findings) == 1, [f.format() for f in findings]
        assert findings[0].rule_id == rule_id
        assert findings[0].path == path
        assert findings[0].snippet  # carries the offending line

    @pytest.mark.parametrize("stem", sorted(RULE_CASES))
    def test_good_fixture_is_clean(self, stem):
        _, path = RULE_CASES[stem]
        findings = check_source(read_fixture(f"{stem}_good.py"), path=path)
        assert findings == [], [f.format() for f in findings]

    def test_all_rules_have_fixture_coverage(self):
        covered = {rule for rule, _ in RULE_CASES.values()}
        assert covered == set(rule_ids())


class TestSuppressions:
    BAD_LINE = "values = values + np.random.rand(3)"

    def snippet(self, marker: str) -> str:
        return f"import numpy as np\n{self.BAD_LINE}  {marker}\n"

    def test_unsuppressed_fires(self):
        assert len(check_source(self.snippet(""))) == 1

    def test_line_suppression(self):
        assert check_source(self.snippet("# repro: ignore[determinism]")) == []

    def test_blanket_line_suppression(self):
        assert check_source(self.snippet("# repro: ignore")) == []

    def test_other_rule_suppression_does_not_apply(self):
        found = check_source(self.snippet("# repro: ignore[api-hygiene]"))
        assert [f.rule_id for f in found] == ["determinism"]

    def test_file_wide_suppression(self):
        text = ("# repro: ignore-file[determinism]\n"
                "import numpy as np\n" + self.BAD_LINE + "\n")
        assert check_source(text) == []

    def test_syntax_error_reports_parse_error(self):
        findings = check_source("def broken(:\n")
        assert [f.rule_id for f in findings] == ["parse-error"]


class TestUnusedSuppressions:
    BAD_LINE = "values = values + np.random.rand(3)"

    def test_used_suppression_is_not_flagged(self):
        text = (f"import numpy as np\n"
                f"{self.BAD_LINE}  # repro: ignore[determinism]\n")
        assert check_source(text, report_unused=True) == []

    def test_dead_line_suppression_is_flagged(self):
        text = ("import numpy as np\n"
                "values = 1  # repro: ignore[determinism]\n")
        findings = check_source(text, report_unused=True)
        assert [f.rule_id for f in findings] == ["unused-suppression"]
        assert findings[0].line == 2
        assert "determinism" in findings[0].message

    def test_dead_blanket_suppression_is_flagged(self):
        text = "values = 1  # repro: ignore\n"
        findings = check_source(text, report_unused=True)
        assert [f.rule_id for f in findings] == ["unused-suppression"]

    def test_dead_file_wide_suppression_is_flagged(self):
        text = ("# repro: ignore-file[shm-hygiene]\n"
                "values = 1\n")
        findings = check_source(text, report_unused=True)
        assert [f.rule_id for f in findings] == ["unused-suppression"]
        assert findings[0].line == 1
        assert "file-wide" in findings[0].message

    def test_unknown_rule_id_is_called_out(self):
        text = "values = 1  # repro: ignore[no-such-rule]\n"
        findings = check_source(text, report_unused=True)
        assert len(findings) == 1
        assert "no such rule" in findings[0].message

    def test_suppression_inside_string_is_ignored(self):
        # Suppression syntax in a string literal is documentation, not
        # a suppression: it must neither suppress nor count as unused.
        text = 'MESSAGE = "# repro: ignore[determinism]"\n'
        assert check_source(text, report_unused=True) == []

    def test_report_unused_defaults_off(self):
        text = "values = 1  # repro: ignore[determinism]\n"
        assert check_source(text) == []


class TestBaseline:
    def bad_findings(self):
        return check_source(read_fixture("determinism_bad.py"),
                            path="src/repro/core/fixture.py")

    def test_round_trip_and_grandfathering(self, tmp_path):
        findings = self.bad_findings()
        path = str(tmp_path / "baseline.json")
        save_baseline(path, findings)
        baseline = load_baseline(path)
        assert baseline == baseline_counts(findings)
        new, old, stale = apply_baseline(findings, baseline)
        assert new == [] and old == findings and stale == {}

    def test_budget_is_per_fingerprint_count(self):
        finding = self.bad_findings()[0]
        twice = [finding, finding]
        new, old, stale = apply_baseline(twice, baseline_counts([finding]))
        assert len(old) == 1 and len(new) == 1  # budget of 1 consumed
        assert stale == {}

    def test_stale_entries_are_reported(self):
        findings = self.bad_findings()
        baseline = baseline_counts(findings)
        # The violations get fixed but the baseline keeps the debt:
        # the unconsumed budget surfaces as stale entries.
        new, old, stale = apply_baseline([], baseline)
        assert new == [] and old == []
        assert stale == baseline

    def test_fingerprint_survives_line_moves(self):
        shifted = "# a new comment pushing lines down\n\n" + \
            read_fixture("determinism_bad.py")
        original = self.bad_findings()[0]
        moved = check_source(shifted, path="src/repro/core/fixture.py")[0]
        assert moved.line != original.line
        assert moved.fingerprint == original.fingerprint

    def test_missing_baseline_is_empty(self, tmp_path):
        assert load_baseline(str(tmp_path / "absent.json")) == {}


class TestWalker:
    def test_fixture_directory_is_never_linted(self):
        files = list(iter_python_files([os.path.join(REPO_ROOT, "tests")]))
        assert files  # the walk itself works
        assert not any("analysis_fixtures" in f for f in files)

    def test_repo_lints_clean(self):
        """The CI invariant itself: src/ and tests/ carry zero
        non-baselined findings (the committed baseline is empty) and
        zero dead suppression comments."""
        findings = check_paths([os.path.join(REPO_ROOT, "src"),
                                os.path.join(REPO_ROOT, "tests")],
                               report_unused=True)
        assert findings == [], [f.format() for f in findings]


class TestCli:
    def write_bad(self, tmp_path):
        target = tmp_path / "offender.py"
        target.write_text("import numpy as np\nx = np.random.rand(4)\n",
                          encoding="utf-8")
        return target

    def test_findings_fail_with_exit_1(self, tmp_path, capsys):
        target = self.write_bad(tmp_path)
        code = main(["--no-baseline", str(target)])
        out = capsys.readouterr().out
        assert code == 1
        assert "[determinism]" in out

    def test_json_format(self, tmp_path, capsys):
        target = self.write_bad(tmp_path)
        code = main(["--no-baseline", "--format=json", str(target)])
        report = json.loads(capsys.readouterr().out)
        assert code == 1
        assert report["summary"]["new"] == 1
        assert report["findings"][0]["rule_id"] == "determinism"
        assert report["findings"][0]["fingerprint"]

    def test_update_baseline_then_clean(self, tmp_path, capsys):
        target = self.write_bad(tmp_path)
        baseline = str(tmp_path / "baseline.json")
        assert main(["--update-baseline", "--baseline", baseline,
                     str(target)]) == 0
        capsys.readouterr()
        code = main(["--baseline", baseline, str(target)])
        out = capsys.readouterr().out
        assert code == 0
        assert "1 baselined" in out

    def test_clean_file_exits_0(self, tmp_path, capsys):
        target = tmp_path / "clean.py"
        target.write_text("import numpy as np\n"
                          "def f(seed):\n"
                          "    return np.random.default_rng(seed)\n",
                          encoding="utf-8")
        assert main(["--no-baseline", str(target)]) == 0

    def test_select_unknown_rule_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["--select", "no-such-rule", str(tmp_path)])

    def test_github_format_emits_annotations(self, tmp_path, capsys):
        target = self.write_bad(tmp_path)
        code = main(["--no-baseline", "--format=github", str(target)])
        out = capsys.readouterr().out
        assert code == 1
        line = next(ln for ln in out.splitlines() if ln.startswith("::"))
        assert line.startswith("::error file=")
        assert "title=repro.analysis[determinism]" in line

    def test_github_format_clean_run_is_silent(self, tmp_path, capsys):
        target = tmp_path / "clean.py"
        target.write_text("import numpy as np\n", encoding="utf-8")
        assert main(["--no-baseline", "--format=github", str(target)]) == 0
        assert "::error" not in capsys.readouterr().out

    def test_stale_baseline_is_flagged(self, tmp_path, capsys):
        target = self.write_bad(tmp_path)
        baseline = str(tmp_path / "baseline.json")
        assert main(["--update-baseline", "--baseline", baseline,
                     str(target)]) == 0
        # Fix the violation; the recorded debt is now stale.
        target.write_text("import numpy as np\n", encoding="utf-8")
        capsys.readouterr()
        code = main(["--baseline", baseline, "--format=json", str(target)])
        report = json.loads(capsys.readouterr().out)
        assert code == 0  # stale debt warns, it does not gate
        assert report["summary"]["stale_baseline"] == 1
        assert len(report["stale_baseline"]) == 1

    def test_dead_suppression_fails_run(self, tmp_path, capsys):
        target = tmp_path / "dead.py"
        target.write_text("values = 1  # repro: ignore[determinism]\n",
                          encoding="utf-8")
        code = main(["--no-baseline", str(target)])
        out = capsys.readouterr().out
        assert code == 1
        assert "[unused-suppression]" in out

    def test_select_disables_unused_suppression_scan(self, tmp_path):
        # A narrowed rule set must not flag other rules' suppressions.
        target = tmp_path / "dead.py"
        target.write_text("values = 1  # repro: ignore[determinism]\n",
                          encoding="utf-8")
        assert main(["--no-baseline", "--select", "shm-hygiene",
                     str(target)]) == 0


class TestGraphChecker:
    def test_every_registered_op_survives_double_backprop(self):
        reports = check_double_backprop()
        assert len(reports) == len(registered_op_names())
        failed = [r for r in reports if not r.ok]
        assert failed == [], [
            f"{r.name}: analytic={r.analytic} fd={r.finite_diff} "
            f"{r.detail}" for r in failed]

    def test_severed_backward_is_caught(self):
        """An op whose VJP drops to raw numpy has correct first-order
        gradients — only the second-order check can see the break."""
        from repro.nn import Tensor

        def severed_tanh(x):
            out = np.tanh(x.data)

            def vjp(g):
                # Correct value, but computed OUTSIDE the graph: the
                # returned Tensor has no parents, so grad-of-grad is 0.
                return (Tensor(g.data * (1.0 - out * out)),)

            return Tensor._make(out, (x,), vjp)

        spec = OpSpec(
            name="severed_tanh_fixture",
            make_inputs=lambda: [np.linspace(-1.2, 1.2, 6).reshape(2, 3)],
            apply=lambda xs: severed_tanh(xs[0]),
        )
        report = check_op(spec)
        assert not report.ok
        assert report.analytic == 0.0
        assert abs(report.finite_diff) > 1e-3  # tanh'' is genuinely nonzero

    def test_register_unregister_round_trip(self):
        spec = OpSpec(name="fixture_identity",
                      make_inputs=lambda: [np.ones((2, 2))],
                      apply=lambda xs: xs[0])
        register_op(spec)
        try:
            assert "fixture_identity" in registered_op_names()
            with pytest.raises(ValueError):
                register_op(spec)
            report = check_op(spec)
            assert report.ok  # linear: analytic 0 == fd 0
        finally:
            unregister_op("fixture_identity")
        assert "fixture_identity" not in registered_op_names()

    def test_crashing_op_reports_failure(self):
        spec = OpSpec(name="fixture_crash",
                      make_inputs=lambda: [np.ones(3)],
                      apply=lambda xs: (_ for _ in ()).throw(
                          RuntimeError("boom")))
        report = check_op(spec)
        assert not report.ok
        assert "RuntimeError" in report.detail
