"""A seeded corpus of systems built three ways, printed as canonical JSON lines.

Each generated system is built from one list of rules, with duplicates,
in three ways: `parse_system` on its declarations and rule lines shuffled,
`make_system` on (premise names, conclusion name) tuples, and
`LogicSystem(language, rules)` on `Rule` objects.  For each system the
script prints whether the three builds are equal, and then for each build
the `str` of every rule, the `render_system` text, both shape verdicts with
their reasons, `close` and `step` on seeded inputs, the one-pass form when
a shape passes, and the influence weights with their matched rules; the
parse also prints its `rule_lines`.  An error prints as its class and
message.  The corpus holds, each round,

* random systems of rules of arity 2 to 4 over both sorts;
* mixed ternary and mixed binary systems, which pass their shape check;
* (standard, nonstandard) => standard systems whose conclusions are also
  first premises, which fail it;
* systems with one rule over a symbol outside the language, which every
  build refuses.

The output depends only on `--rounds` (the generator's seed is the constant
SEED), and the script uses only the public API, so runs compare byte for
byte across PYTHONHASHSEED values or across two checkouts of the package:

    PYTHONHASHSEED=0 PYTHONPATH=src python tests/model_corpus.py > a.jsonl
    PYTHONHASHSEED=7 PYTHONPATH=src python tests/model_corpus.py > b.jsonl
    cmp a.jsonl b.jsonl
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from conseq import (
    LogicSystem,
    Rule,
    Sort,
    Symbol,
    close,
    closed_form_binary,
    closed_form_ternary,
    is_mixed_binary,
    is_mixed_ternary,
    make_language,
    make_system,
    matched_rules_binary,
    matched_rules_ternary,
    parse_system,
    render_system,
    step,
    weight_binary,
    weight_ternary,
)

SEED = 0
KINDS = ("random", "ternary", "binary", "chaining", "outside")
INPUTS = 5  # seeded inputs to close, step and the one-pass forms, per system


def names(subset) -> list[str]:
    return sorted(s.name for s in subset)


def line(**fields) -> str:
    return json.dumps(fields, sort_keys=True, separators=(",", ":"))


def attempt(call):
    """The value of `call()`, or its error as class and message."""
    try:
        return call()
    except Exception as e:
        return {"error": f"{type(e).__name__}: {e}"}


def rule_tuples(rng: random.Random, kind: str):
    """The standard names, nonstandard names and (premise names, conclusion
    name) tuples of one system of `kind`, duplicates included."""
    if kind in ("random", "outside"):
        n = rng.randint(2, 10)
        n_std = rng.randint(1, n - 1)
        std, non = [f"s{i}" for i in range(n_std)], [f"n{i}" for i in range(n - n_std)]
        pool = std + non
        rules = [
            ([rng.choice(pool) for _ in range(rng.randint(1, 3))], rng.choice(pool))
            for _ in range(rng.randint(1, 2 * n))
        ]
    elif kind == "binary":
        std = [f"b{i}" for i in range(rng.randint(1, 6))]
        non = [f"l{i}" for i in range(rng.randint(1, 6))]
        rules = [([rng.choice(non)], rng.choice(std)) for _ in range(rng.randint(1, 10))]
    else:
        chaining = kind == "chaining"
        firsts = [f"a{i}" for i in range(rng.randint(1, 6))]
        non = [f"l{i}" for i in range(rng.randint(1, 5))]
        concs = firsts if chaining else [f"b{i}" for i in range(rng.randint(1, 5))]
        std = sorted({*firsts, *concs})
        rules = [([rng.choice(firsts), rng.choice(non)], rng.choice(concs)) for _ in range(rng.randint(1, 10))]
    rules += rng.choices(rules, k=rng.randint(0, len(rules)))
    if kind == "outside":
        premises, conclusion = rules[rng.randrange(len(rules))]
        rules.insert(rng.randrange(len(rules) + 1), ([*premises, "zz"], conclusion))
    rng.shuffle(rules)
    return std, non, rules


def builds(rng: random.Random, std, non, rules) -> dict:
    """The system of `rules` by each front end: a parse of the shuffled
    document, `make_system`, and `LogicSystem` on `Rule` objects."""
    lines = [f"standard: {' '.join(std)}", *(f"rule: {' '.join(ps)} => {c}" for ps, c in rules)]
    if non:
        lines.append(f"nonstandard: {' '.join(non)}")
    rng.shuffle(lines)
    language = make_language(std, non)

    def symbol(name):
        # a symbol outside the language gets the sort its prefix gives
        return Symbol(name, Sort.NONSTANDARD if name[0] in "ln" else Sort.STANDARD)

    return {
        "parse": attempt(lambda: parse_system("\n".join(lines))),
        "make_system": attempt(lambda: make_system(language, rules)),
        "LogicSystem": attempt(
            lambda: LogicSystem(language, [Rule(tuple(map(symbol, ps)), symbol(c)) for ps, c in rules])
        ),
    }


def verdict(check) -> dict:
    return {"ok": bool(check), "reason": check.reason}


def evaluate(case: str, via: str, system, inputs: list[list[str]], anchors: list[tuple[str, str]]) -> list[str]:
    """Rows of every reader of one build of a system: the one-pass forms of
    the shapes it passes on `inputs`, and the weights of `anchors`, each a
    (first premise, conclusion) pair for `weight_ternary` whose conclusion
    `weight_binary` takes too."""

    def row(call, result, **more):
        return line(case=case, via=via, call=call, result=result, **more)

    resolve = system.language.resolve
    shapes = {"ternary": is_mixed_ternary(system), "binary": is_mixed_binary(system)}
    out = [
        row("rules", [str(r) for r in system.rules]),
        row("render_system", render_system(system)),
        *(row(f"is_mixed_{label}", verdict(check)) for label, check in shapes.items()),
    ]
    forms = {"close": close, "step": step}
    if shapes["ternary"]:
        forms["closed_form_ternary"] = closed_form_ternary
    if shapes["binary"]:
        forms["closed_form_binary"] = closed_form_binary
    for given in inputs:
        x = list(map(resolve, given))
        for call, form in forms.items():
            out.append(row(call, attempt(lambda: names(form(system, x))), input=given))
    for pair in anchors:
        a, b = map(resolve, pair)
        weights = {
            "weight_ternary": (lambda: weight_ternary(system, a, b), lambda: matched_rules_ternary(system, a, b)),
            "weight_binary": (lambda: weight_binary(system, b), lambda: matched_rules_binary(system, b)),
        }
        for call, (weight, matched) in weights.items():
            result = attempt(lambda: {"weight": weight().multiplicity, "matched": [str(r) for r in matched()]})
            out.append(row(call, result, input=[a.name, b.name]))
    return out


def system_case(rng: random.Random, case: str, kind: str) -> list[str]:
    std, non, rules = rule_tuples(rng, kind)
    built = builds(rng, std, non, rules)
    doc = built["parse"]
    if not isinstance(doc, dict):
        built["parse"] = doc.system
    pool = sorted(std + non)
    # one rule's premises, which fire it, and random sets of up to half the names
    inputs = [sorted(set(rng.choice(rules)[0]))]
    inputs += [sorted(rng.sample(pool, rng.randint(1, max(1, len(pool) // 2)))) for _ in range(INPUTS - 1)]
    # every rule's (first premise, conclusion), and a pair that may match none
    anchors = sorted({(ps[0], c) for ps, c in rules}) + [(rng.choice(pool), rng.choice(pool))]
    first, *others = built.values()
    out = [line(case=case, call="equal", result=[first == other for other in others])]
    if not isinstance(doc, dict):
        out.append(line(case=case, via="parse", call="rule_lines", result=list(doc.rule_lines)))
    for via, system in built.items():
        if isinstance(system, dict):
            out.append(line(case=case, via=via, call="build", result=system))
        else:
            out += evaluate(case, via, system, inputs, anchors)
    return out


def corpus(rounds: int):
    """Every row of `rounds` rounds; each draws one system of every kind."""
    rng = random.Random(SEED)
    for r in range(rounds):
        for kind in KINDS:
            yield from system_case(rng, f"{kind}-{r}", kind)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rounds", type=int, default=20, help="rounds of systems (default 20)")
    args = parser.parse_args(argv)
    for row in corpus(args.rounds):
        sys.stdout.write(row + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
