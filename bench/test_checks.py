"""Tests of the benchmark itself: every checker accepts the right answer and
rejects a corrupted one, and a run flags a wrong or failing program.

    python3 -m pytest bench/test_checks.py -q
"""

from __future__ import annotations

import random
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checks  # noqa: E402
import inputs  # noqa: E402
import workloads  # noqa: E402
from checks import Mismatch  # noqa: E402
from harness import REF_UNIT_S, Reference, Runner  # noqa: E402

TERNARY = [(("a0", "l0"), "b0"), (("a0", "l1"), "b1"), (("a1", "l0"), "b0")]
GENERAL = [(("p0",), "p1"), (("p1", "q0"), "p2"), (("p2",), "p3")]


def test_chain_tail_and_closure_check():
    want = checks.chain_tail("s", 5, 2)
    assert want == {"s2", "s3", "s4", "s5"}
    checks.check_closure(frozenset(want), want, "close")
    with pytest.raises(Mismatch):
        checks.check_closure(want - {"s5"}, want, "close")
    with pytest.raises(Mismatch):
        checks.check_closure(want | {"s1"}, want, "close")


def test_one_pass_and_fixpoints_agree():
    x = frozenset({"a0", "l0", "l1"})
    assert checks.one_pass(TERNARY, x) == x | {"b0", "b1"}
    universe = ["p0", "p1", "p2", "p3", "q0"]
    masks = checks.rule_masks(GENERAL, universe)
    for m in range(1 << len(universe)):
        names = frozenset(s for i, s in enumerate(universe) if m >> i & 1)
        image = checks.mask_fixpoint(masks, m)
        assert checks.fixpoint(GENERAL, names) == {s for i, s in enumerate(universe) if image >> i & 1}
    assert checks.fixpoint(GENERAL, frozenset({"p0", "q0"})) == {"p0", "p1", "p2", "p3", "q0"}


def test_multiplicities_count_distinct_tuples():
    anchored, concluded = checks.multiplicities(TERNARY + TERNARY[:1])
    assert anchored[("a0", "b0")] == 1 and anchored[("a1", "b0")] == 1
    assert concluded["b0"] == 2 and concluded["b1"] == 1 and concluded["b2"] == 0


def _laws(n):
    return [(law, True, k) for law, k in checks.law_counts(n).items()]


def test_law_checker_rejects_failures_and_wrong_counts():
    checks.check_laws(_laws(4), 4)
    rows = _laws(4)
    with pytest.raises(Mismatch):
        checks.check_laws([rows[0], ("idempotence", False, 16), *rows[2:]], 4)
    with pytest.raises(Mismatch):
        checks.check_laws([rows[0], rows[1], ("monotonicity", True, 31), rows[3]], 4)
    with pytest.raises(Mismatch):
        checks.check_laws(rows[:3], 4)


def _verify_rows(n, n_rules):
    full = 1 << n
    rows = [("no-match-fixed", True, full - 3), ("match-union", True, 3),
            ("premise-set-values", True, n_rules), ("matched-count", True, n * full // 2),
            ("closed-form-agreement", True, full)]
    return rows + [(f"closed-form-{law}", True, k) for law, k in checks.law_counts(n).items()]


def test_verify_checker_rejects_failures_and_wrong_counts():
    checks.check_verify(_verify_rows(4, 3), 4, 3)
    rows = _verify_rows(4, 3)
    with pytest.raises(Mismatch):
        checks.check_verify([*rows[:4], ("closed-form-agreement", False, 16), *rows[5:]], 4, 3)
    with pytest.raises(Mismatch):
        checks.check_verify(rows, 4, 4)
    with pytest.raises(Mismatch):
        checks.check_verify([("no-match-fixed", True, 12), *rows[1:]], 4, 3)


def test_close_records_checker():
    want = frozenset({"a0", "b0", "l0"})
    good = checks.parse_records("result=a0,b0,*l0 size=3\n")
    checks.check_close_records(good, want, {"l0"})
    for bad in ("result=a0,b0,*l0 size=4", "result=a0,*l0 size=2", "result=b0,a0,*l0 size=3",
                "result=a0,b0,l0 size=3", "result=a0,b0,*l0 size=3\nresult=a0 size=1"):
        with pytest.raises(Mismatch):
            checks.check_close_records(checks.parse_records(bad), want, {"l0"})


def test_law_records_checker():
    text = "".join(f"law={law} status=pass checked={k}\n" for law, _, k in _laws(3))
    checks.check_law_records(checks.parse_records(text), 3)
    with pytest.raises(Mismatch):
        checks.check_law_records(checks.parse_records(text.replace("status=pass", "status=fail", 1)), 3)


def test_canonical_text_matches_the_documented_layout():
    text = checks.canonical_text(["b0", "a1", "a0"], ["l0"], [(("a1", "l0"), "b0"), (("a0",), "b0")])
    assert text == "standard: a0 a1 b0\nnonstandard: l0\nrule: a0 => b0\nrule: a1 l0 => b0\n"


def test_reference_scales_by_the_loop_speed_near_the_sample():
    ref = Reference()
    ref.times = [0.0, 1.0, 1.1, 1.2, 5.0]
    ref.units = [1.0, 2 * REF_UNIT_S, 3 * REF_UNIT_S, 2 * REF_UNIT_S, 1.0]
    assert ref.nominal(0.4, 1.05, 1.15) == pytest.approx(0.2)


def test_reference_takes_its_ticks_out_of_the_sample():
    ref = Reference()
    _, dt, t0, t1 = ref.time(time.sleep, 0.2)
    assert len(ref.units) > 5  # before, after and the ticks while sleeping
    assert dt < t1 - t0
    assert dt == pytest.approx(0.2, abs=0.02)


@pytest.fixture
def small_chain(monkeypatch):
    monkeypatch.setattr(inputs, "CHAIN_RULES", 40)
    return workloads.chain_deep(random.Random(7))


def _run(plan, tmp_path):
    runner = Runner(HERE.parent, tmp_path, plan, seconds=0.05, trace=False)
    runner.run()
    return runner


def test_run_passes_on_the_program(small_chain, tmp_path):
    runner = _run(small_chain, tmp_path)
    assert runner.correct and runner.failed == 0, runner.errors
    assert set(runner.end_to_end()) == {
        "setup_s", "close_qps", "fastpath_qps", "influence_qps", "check_s", "verify_s", "cli_s", "peak_rss_mb"
    }


def test_run_flags_a_wrong_closure(small_chain, tmp_path, monkeypatch):
    from conseq import closure

    real = closure.close

    def lossy(system, members):
        result = real(system, members)
        return result - {max(result, key=lambda s: s.name)}

    monkeypatch.setattr(closure, "close", lossy)
    runner = _run(small_chain, tmp_path)
    assert not runner.correct
    assert runner.failed == 0


def test_run_counts_failing_operations(small_chain, tmp_path, monkeypatch):
    from conseq import influence

    def broken(system, b):
        raise RuntimeError("broken")

    monkeypatch.setattr(influence, "weight_binary", broken)
    runner = _run(small_chain, tmp_path)
    assert runner.correct
    assert runner.failed > 0 and runner.failed % len(small_chain.influence) == 0
