"""Golden-corpus gadget-set digests: finder semantics drift fails loudly.

Every corpus program's gadget set is frozen as a (count, digest) pair,
where the digest hashes the sorted per-gadget fingerprint lines
(address, end, kind, stack words, far, ret imm).  Any change to
discovery or classification semantics — a new decoder quirk, a
classifier tweak, a finder rewrite — changes a digest and fails this
test, forcing the change to be deliberate: regenerate ``GOLDEN`` and
say why in the commit.  (Cached finder output needs no attention: every
cache key covers the package source, so a source edit orphans it.)

Regenerate after an intentional semantics change with::

    PYTHONPATH=src python -m tests.gadgets.test_golden_corpus

which prints the ``GOLDEN`` dict to paste over the one below.
"""

import hashlib

import pytest

from repro.corpus import PROGRAM_NAMES, build_program_cached
from repro.gadgets import find_gadgets, reference_find_gadgets

#: program -> (gadget count, sha256 over sorted fingerprint lines).
#: Regen path in the module docstring.
GOLDEN = {
    "wget": (519, "decf0acde88ba202651a5245b063618078cc5e50275c5a1a3f3dab06ae96fb8e"),
    "nginx": (812, "8eaf955ad2b58e14570a8ee5a0ba0ede7d051ab069d177d461d3dfd86b98c312"),
    "bzip2": (425, "53b37cdcb0b58ff9a42f9b3db1df321a1c11833cf7b1ffda0e186e000af1ba43"),
    "gzip": (353, "4bafd7528d4c15b86b74234a3926adb35ba1bdfd90eaeccdbf15e4a3662ddd33"),
    "gcc": (1685, "d6793185fcdeaddc4389e0441936f16c8a43198d19782ba401e8aab2223d8fdf"),
    "lame": (470, "97885c731aa140a9f2dc00a582a0ef2ad867736c239762696c7bef5d3ebe11c2"),
}


def gadget_set_digest(gadgets):
    """(count, sha256) over the sorted address/kind fingerprint lines."""
    lines = sorted(
        "%d:%d:%r:%d:%d:%d" % (
            g.address, g.end, g.kind.key(), g.stack_words, int(g.far), g.ret_imm
        )
        for g in gadgets
    )
    digest = hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()
    return len(lines), digest


@pytest.mark.parametrize("name", PROGRAM_NAMES)
def test_gadget_set_matches_golden_digest(name):
    image = build_program_cached(name).image
    count, digest = gadget_set_digest(find_gadgets(image))
    expected_count, expected_digest = GOLDEN[name]
    assert (count, digest) == (expected_count, expected_digest), (
        f"{name}: gadget set drifted from the frozen golden digest "
        f"({count} gadgets vs {expected_count} expected). "
        "If the semantics change is intentional, regenerate GOLDEN: "
        "PYTHONPATH=src python -m tests.gadgets.test_golden_corpus"
    )


def test_reference_finder_matches_golden_too():
    """The oracle and the production scanner hash identically on at
    least one full corpus image (the differential suite covers random
    buffers; this pins a real program)."""
    image = build_program_cached("gzip").image
    assert gadget_set_digest(reference_find_gadgets(image)) == GOLDEN["gzip"]


def _regen():
    print("GOLDEN = {")
    for name in PROGRAM_NAMES:
        image = build_program_cached(name).image
        count, digest = gadget_set_digest(find_gadgets(image))
        print(f'    "{name}": ({count}, "{digest}"),')
    print("}")


if __name__ == "__main__":
    _regen()
