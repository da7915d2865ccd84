"""Expected answers computed without the program, and the checks that
compare the program's outputs with them.

Nothing here imports conseq: every expectation is recomputed from the rule
tuples in `inputs.py` (an analytic chain tail, a one-pass evaluator, a
`Counter`, a bitmask fixpoint, the law-count formulas, the canonical text
layout).  Each check raises `Mismatch` on the first difference.
"""

from __future__ import annotations

from collections import Counter

Rule = tuple[tuple[str, ...], str]


class Mismatch(Exception):
    """A program output differs from the independently computed one."""


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise Mismatch(message)


# -- closures ------------------------------------------------------------------

def chain_tail(prefix: str, n_rules: int, start: int) -> frozenset[str]:
    """Closure of {s_start} in the chain s0 => s1 => ... => s_n: its tail."""
    return frozenset(f"{prefix}{j}" for j in range(start, n_rules + 1))


def one_pass(rules: list[Rule], x: frozenset[str]) -> frozenset[str]:
    """X plus the conclusion of every rule whose premises all lie in X.

    Equals the closure only when no premise is ever a conclusion (the mixed
    ternary and mixed binary shapes); that is exactly what the checks rely
    on, so this evaluator must never be used on a chaining system.
    """
    return x | {c for ps, c in rules if ps[0] in x and x.issuperset(ps)}


def fixpoint(rules: list[Rule], x: frozenset[str]) -> frozenset[str]:
    """Closure of X by repeated full passes, for any system."""
    cur = x
    while True:
        nxt = one_pass(rules, cur)
        if nxt == cur:
            return cur
        cur = nxt


def rule_masks(rules: list[Rule], universe: list[str]) -> list[tuple[int, int]]:
    bit = {s: 1 << i for i, s in enumerate(universe)}
    out = []
    for ps, c in rules:
        pm = 0
        for p in ps:
            pm |= bit[p]
        out.append((pm, bit[c]))
    return out


def mask_fixpoint(masks: list[tuple[int, int]], mask: int) -> int:
    """Closure of a subset given as a bitmask, by repeated full passes."""
    while True:
        nxt = mask
        for pm, cb in masks:
            if nxt & pm == pm:
                nxt |= cb
        if nxt == mask:
            return mask
        mask = nxt


def check_closure(got: frozenset[str], want: frozenset[str], what: str) -> None:
    if got != want:
        extra = sorted(got - want)[:3]
        missing = sorted(want - got)[:3]
        raise Mismatch(f"{what}: extra {extra}, missing {missing}")


# -- influence -----------------------------------------------------------------

def multiplicities(rules: list[Rule]) -> tuple[Counter, Counter]:
    """(first premise, conclusion) counts and conclusion counts over the
    distinct rule tuples."""
    distinct = set(rules)
    return Counter((ps[0], c) for ps, c in distinct), Counter(c for _, c in distinct)


# -- law reports ---------------------------------------------------------------

CLOSURE_LAWS = ("insertion", "idempotence", "monotonicity", "finitary")
VERIFY_LAWS = (
    "no-match-fixed",
    "match-union",
    "premise-set-values",
    "matched-count",
    "closed-form-agreement",
) + tuple(f"closed-form-{law}" for law in CLOSURE_LAWS)


def law_counts(n: int) -> dict[str, int]:
    """Exact `checked` counts of the four laws on a table of 2^n subsets
    that passes: every subset once, and monotonicity on covering pairs."""
    full = 1 << n
    return {"insertion": full, "idempotence": full, "monotonicity": n * full // 2, "finitary": full}


def check_laws(results: list[tuple[str, bool, int]], n: int) -> None:
    """`results` holds (law, passed, checked) in report order."""
    want = law_counts(n)
    expect([r[0] for r in results] == list(CLOSURE_LAWS), f"law names {[r[0] for r in results]}")
    for law, passed, checked in results:
        expect(passed, f"law {law} failed")
        expect(checked == want[law], f"law {law} checked {checked}, want {want[law]}")


def check_verify(results: list[tuple[str, bool, int]], n: int, n_rules: int) -> None:
    """Every law of `verify_closed_form_characterization` passes, with the
    counts a passing run over 2^n subsets and `n_rules` rules must give."""
    expect([r[0] for r in results] == list(VERIFY_LAWS), f"verify laws {[r[0] for r in results]}")
    counts = law_counts(n)
    want = {f"closed-form-{law}": k for law, k in counts.items()}
    want["premise-set-values"] = n_rules
    want["matched-count"] = counts["monotonicity"]
    want["closed-form-agreement"] = 1 << n
    for law, passed, checked in results:
        expect(passed, f"verify law {law} failed")
        if law in want:
            expect(checked == want[law], f"verify law {law} checked {checked}, want {want[law]}")
    got = {law: checked for law, _, checked in results}
    split = got["no-match-fixed"] + got["match-union"]
    expect(split == 1 << n, f"no-match-fixed + match-union checked {split}, want {1 << n}")


# -- text ----------------------------------------------------------------------

def canonical_text(standard, nonstandard, rules: list[Rule]) -> str:
    """The documented canonical rendering: sorted declarations, then the
    distinct rules by (arity, premises, conclusion)."""
    lines = ["standard: " + " ".join(sorted(standard))]
    if nonstandard:
        lines.append("nonstandard: " + " ".join(sorted(nonstandard)))
    for ps, c in sorted(set(rules), key=lambda r: (len(r[0]), r[0], r[1])):
        lines.append(f"rule: {' '.join(ps)} => {c}")
    return "\n".join(lines) + "\n"


def set_text(names, nonstandard) -> str:
    """Rendered set: names sorted, nonstandard ones starred."""
    return ",".join(f"*{s}" if s in nonstandard else s for s in sorted(names))


def parse_records(stdout: str) -> list[dict[str, str]]:
    """`--output records` lines: space-separated key=value pairs."""
    out = []
    for line in stdout.splitlines():
        if line:
            out.append(dict(pair.split("=", 1) for pair in line.split(" ")))
    return out


def check_close_records(records, want: frozenset[str], nonstandard) -> None:
    expect(len(records) == 1, f"close printed {len(records)} records")
    rec = records[0]
    expect(rec.get("size") == str(len(want)), f"close size {rec.get('size')}, want {len(want)}")
    got = rec.get("result", "")
    if got != set_text(want, nonstandard):
        names = frozenset(n.lstrip("*") for n in got.split(",") if n)
        check_closure(names, want, "cli close")
        raise Mismatch("cli close: result text is not in canonical order")


def check_law_records(records, n: int, n_rules: int | None = None) -> None:
    """Records of `check` (n_rules None) or `verify-thm23`."""
    rows = []
    for rec in records:
        expect(set(rec) >= {"law", "status", "checked"}, f"bad law record {rec}")
        rows.append((rec["law"], rec["status"] == "pass", int(rec["checked"])))
    if n_rules is None:
        check_laws(rows, n)
    else:
        check_verify(rows, n, n_rules)
