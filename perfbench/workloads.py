"""The benchmark's workloads: the CLI calls each one makes, drawn from the seed,
and the checks its outputs must pass.

A workload is a list of `algstat` argument vectors. The harness runs the list
once against an empty private cache (the cold pass) and once more on the cache
that pass filled (the warm pass). The program sees only the generated argv.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
EXPECTED = json.loads((HERE / "expected.json").read_text(encoding="ascii"))


@dataclass
class Workload:
    """The calls of one workload and what their outputs must be.

    ``digest`` maps an argv (joined by spaces) to the sha256 of the stdout
    that call must print; a call without an entry is checked only for
    cold/warm identity and the replay checks in ``check_output``.
    """

    name: str
    calls: list[list[str]]
    digest: dict[str, str] = field(default_factory=dict)


def _bits(rng: random.Random, lo: int, hi: int) -> str:
    n = rng.randint(lo, hi)
    return "".join(rng.choice("01") for _ in range(n))


def laws(seed: int) -> Workload:
    # The battery is fixed; the seed is recorded but draws nothing.
    argv = ["laws", "--workers", "1"]
    return Workload("laws", [argv], {" ".join(argv): EXPECTED["laws"]})


def structfn(seed: int) -> Workload:
    # Length 8 is the longest at which every string fits the default L_c=22
    # conditional tables; the digests were recorded for all 256 of them.
    x = format(random.Random(seed).randrange(256), "08b")
    argv = ["structfn", x, "--workers", "2"]
    return Workload("structfn", [argv], {" ".join(argv): EXPECTED["structfn"][x]})


def queries(seed: int) -> Workload:
    """Two calls of each query kind, shuffled.

    The sizes are held fixed so that every seed does the same amount of work:
    condition strings have 3 bits (every such table has 3547 entries), the
    distributions are Bernoulli on 4 bits, and `mi` takes a string of at most
    3 bits and one of at most 2 (22 of the 64 pairs of 3-bit strings fall
    outside the L=24 table, and the call exits 1).
    """
    rng = random.Random(seed)
    conds = rng.sample(["000", "001", "010", "011", "100", "101", "110", "111"], 2)
    probs = rng.sample(["1/4", "3/4", "3/8", "5/8"], 2)
    calls = []
    for i in range(2):
        calls.append(["k", _bits(rng, 4, 6)])
        calls.append(["k", _bits(rng, 3, 5), "--cond", conds[i]])
        calls.append(["mi", _bits(rng, 1, 3), _bits(rng, 1, 2)])
        calls.append(["probstat", _bits(rng, 4, 4), f"bern:4,{probs[i]}"])
        calls.append(["sk", str(rng.randint(5, 10))])
        calls.append(["suffstat", _bits(rng, 4, 8)])
    rng.shuffle(calls)
    return Workload("queries", calls)


BUILDERS = {"laws": laws, "structfn": structfn, "queries": queries}

_K_LINE = re.compile(r"K=(\d+) witness=([01]*|-)\n\Z")
_MI_LINE = re.compile(r"I=(-?\d+) K\(x\)=(\d+) K\(y\)=(\d+) K\(pair\)=(\d+)\n\Z")


def check_output(argv: list[str], stdout: bytes, digest: str | None) -> str | None:
    """Return why this call's stdout is wrong, or None when it passes.

    `k` answers are replayed through the machine: the witness must print x
    and its length must be K. `mi` lines must satisfy I = K(x)+K(y)-K(pair).
    """
    if digest is not None and hashlib.sha256(stdout).hexdigest() != digest:
        return "stdout digest differs from the recorded one"
    text = stdout.decode("ascii", "replace")
    if argv[0] == "k":
        from algstat.bits import text_to_bits
        from algstat.machine import Condition, run

        m = _K_LINE.match(text)
        if m is None:
            return f"unparsable k answer {text!r}"
        k, witness = int(m.group(1)), text_to_bits(m.group(2))
        cond = Condition.string(text_to_bits(argv[3])) if "--cond" in argv else None
        outcome = run(witness, cond)
        if not outcome.halted or outcome.output != text_to_bits(argv[1]):
            return f"witness {m.group(2)} does not print {argv[1]}"
        if len(witness) != k:
            return f"witness length {len(witness)} != K={k}"
    elif argv[0] == "mi":
        m = _MI_LINE.match(text)
        if m is None:
            return f"unparsable mi answer {text!r}"
        i, kx, ky, kxy = map(int, m.groups())
        if i != kx + ky - kxy:
            return f"mi answer {text.strip()!r} is inconsistent"
    elif not text:
        return "empty stdout"
    return None
