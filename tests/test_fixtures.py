"""The synthetic corpora of ``conftest.py`` stay what they were.

``make_docs`` draws its letters inline, by the ``getrandbits`` calls
that ``random.Random.choice`` and ``randint`` make, which is faster than
calling them; the documents it gives for a seed must not change, since
tests across the suite assert figures measured on them.
"""

from __future__ import annotations

import hashlib

from conftest import doc_json, make_docs

# The sha256 of the doc_json lines of the acceptance suite's fixture
# seed, as make_docs gave them when it called rng.choice per letter.
PINNED_SHA256 = "a2c350369a3bae45d012560ffb26ae727e656708e4e534ce26153adc22fa5fee"


def test_make_docs_pinned():
    digest = hashlib.sha256()
    for doc in make_docs(2000, seed=20_240):
        digest.update((doc_json(doc) + "\n").encode("utf-8"))
    assert digest.hexdigest() == PINNED_SHA256
