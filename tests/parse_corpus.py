"""A seeded corpus of .lgs documents, valid and mutated, printed as
canonical JSON lines.

Each round generates documents of declarations, rules, comments and blank
lines, and mutates copies of them: lines duplicated, deleted or shuffled;
tokens swapped, deleted or inserted; whitespace replaced with a tab,
vertical tab, no-break space, carriage return or nothing.  For each
document the script prints the document and either the error that
`parse_system` raises, as its class, line, column, message and
`expected`, or the `render_system` text and `rule_lines` of the parse.

The output depends only on `--rounds` (the generator's seed is the constant
SEED), and the script uses only the public API, so runs compare byte for
byte across PYTHONHASHSEED values or across two checkouts of the package:

    PYTHONHASHSEED=0 PYTHONPATH=src python tests/parse_corpus.py > a.jsonl
    PYTHONHASHSEED=7 PYTHONPATH=src python tests/parse_corpus.py > b.jsonl
    cmp a.jsonl b.jsonl
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from conseq import ConseqError, parse_system, render_system

SEED = 0
DOCUMENTS = 12  # generated documents per round
MUTANTS = 6  # mutated copies of each
NAMES = ("a1", "a2", "b1", "b2", "l1", "l2", "x", "_y", "Z9", "0")
# tokens a mutation may insert: names, the grammar's punctuation and
# keywords, and characters outside the name grammar
TOKENS = (*NAMES, "=>", ":", "rule:", "standard:", "nonstandard", "#", "*a1", "=", "-", "é", "a1,b1")
SPACES = ("\t", "\x0b", "\xa0", "\r", "")


def line(**fields) -> str:
    return json.dumps(fields, sort_keys=True, separators=(",", ":"))


def document(rng: random.Random) -> list[str]:
    """The lines of one document: declarations, which may repeat, name
    one symbol in both sorts or leave the standard part empty, and rules,
    which may use an undeclared name, among comments and blank lines."""
    names = rng.sample(NAMES, rng.randint(2, len(NAMES)))
    cut = rng.randint(0 if rng.random() < 0.1 else 1, len(names) - 1)
    standard, nonstandard = names[:cut], names[cut:]
    if rng.random() < 0.1:
        nonstandard.append(rng.choice(names))
    lines = []
    for keyword, part in (("standard", standard), ("nonstandard", nonstandard)):
        split = rng.randint(0, len(part))
        for chunk in (part[:split], part[split:]):
            if chunk or rng.random() < 0.05:
                lines.append(f"{keyword}: {' '.join(chunk)}")
    pool = names + (["zz"] if rng.random() < 0.1 else [])
    for _ in range(rng.randint(0, 6)):
        premises = rng.choices(pool, k=rng.randint(1, 3))
        lines.append(f"{' ' * rng.randint(0, 2)}rule: {' '.join(premises)} => {rng.choice(pool)}")
    for _ in range(rng.randint(0, 2)):
        lines.insert(rng.randint(0, len(lines)), rng.choice(["", "# a comment", "   ", "  # rule: a1 => b1"]))
    rng.shuffle(lines)
    return lines


def mutate(rng: random.Random, lines: list[str]) -> list[str]:
    """`lines` with one to three random edits."""
    lines = list(lines) or [""]
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(lines))
        tokens = lines[i].split(" ")
        edit = rng.choice(("duplicate", "delete", "shuffle", "swap", "drop", "insert", "space"))
        if edit == "duplicate":
            lines.insert(rng.randint(0, len(lines)), lines[i])
        elif edit == "delete" and len(lines) > 1:
            del lines[i]
        elif edit == "shuffle":
            rng.shuffle(lines)
        elif edit == "swap":
            j, k = rng.randrange(len(tokens)), rng.randrange(len(tokens))
            tokens[j], tokens[k] = tokens[k], tokens[j]
            lines[i] = " ".join(tokens)
        elif edit == "drop":
            del tokens[rng.randrange(len(tokens))]
            lines[i] = " ".join(tokens)
        elif edit == "insert":
            tokens.insert(rng.randint(0, len(tokens)), rng.choice(TOKENS))
            lines[i] = " ".join(tokens)
        elif edit == "space" and len(tokens) > 1:
            j = rng.randrange(1, len(tokens))
            lines[i] = " ".join(tokens[:j]) + rng.choice(SPACES) + " ".join(tokens[j:])
    return lines


def outcome(text: str) -> dict:
    """The rendered parse of `text`, or the error it raises."""
    try:
        doc = parse_system(text)
    except ConseqError as e:
        where = {"line": e.line, "col": e.col, "message": e.message, "expected": getattr(e, "expected", None)}
        return {"error": type(e).__name__, **where}
    return {"render_system": render_system(doc), "rule_lines": list(doc.rule_lines)}


def corpus(rounds: int):
    """Every row of `rounds` rounds; each draws DOCUMENTS documents and
    MUTANTS mutated copies of each."""
    rng = random.Random(SEED)
    for r in range(rounds):
        for d in range(DOCUMENTS):
            lines = document(rng)
            for m in range(MUTANTS + 1):
                text = "\n".join(mutate(rng, lines) if m else lines)
                yield line(case=f"{r}-{d}-{m}", document=text, result=outcome(text))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rounds", type=int, default=20, help="rounds of documents (default 20)")
    args = parser.parse_args(argv)
    for row in corpus(args.rounds):
        sys.stdout.write(row + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
