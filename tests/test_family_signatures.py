"""Pins of every built-in family's argument plumbing: sampling, rendering, parsing.

The sampler digests hash, for each of the seeds 0..49, the drawn arguments,
their rendering and the next 32 bits of the generator after the draw, so a
change in the values, the order or the number of draws shows.  Height 1
draws a zero numerator a third of the time, so it pins which arguments are
drawn nonzero.  The parse errors are pinned by their text; the order digest
hashes the message of every token tuple over {"1", "0", "abc"}, so it pins
which error wins when several arguments are wrong.
"""

import hashlib
import itertools
import random

import pytest

from adelic.rational import DomainError
from adelic.verifier import default_registry

# family -> digests of the draws at heights 1, 1000 and 10**6, then the order digest
PINNED = {
    "beta-product": ("80c00be73518d5ffecad", "80c00be73518d5ffecad", "80c00be73518d5ffecad", "05fb1a71b879ccbe6b78"),
    "character-product": ("77cd9d879fe65d0a8ebb", "5fa652597d506088c617", "a7cf7c54f386bebc2b0e", "eca7bb03517972393141"),
    "functional-equation": ("ef8864dd44a255fd0b44", "ef8864dd44a255fd0b44", "ef8864dd44a255fd0b44", "42b0fd37d07b70821147"),
    "gamma-product": ("ef8864dd44a255fd0b44", "ef8864dd44a255fd0b44", "ef8864dd44a255fd0b44", "42b0fd37d07b70821147"),
    "gauss-product": ("a7297fa961c698901729", "ad6818ba2192aa97e741", "16fa6a57910c9d7b0de4", "fd22d4802f5f85aff37e"),
    "hilbert-product": ("765e26398effe60d8240", "ad6818ba2192aa97e741", "16fa6a57910c9d7b0de4", "12d4b0a48c4f2d4ce5c2"),
    "kernel-product": ("91801a376a6c7a6f3fe4", "9824992faad056926d44", "7f0bdf68e597e62dc156", "f41286a9debf6825652b"),
    "lambda-product": ("a27670b38bfb04c435e5", "5fa652597d506088c617", "a7cf7c54f386bebc2b0e", "16863c30a99e1f57f0cf"),
    "norm-product": ("a27670b38bfb04c435e5", "5fa652597d506088c617", "a7cf7c54f386bebc2b0e", "16863c30a99e1f57f0cf"),
}

NOT_RATIONAL = "'abc' is not a rational (use n or n/d)"
NOT_COMPLEX = "'abc' is not a complex number (use re or re+imi)"

# family -> (tokens, DomainError text): wrong counts, a zero in each slot
# that must be nonzero, a malformed token in each slot
PARSE_ERRORS = {
    "norm-product": [
        ((), "expected 1 argument(s): x"),
        (("1", "1"), "expected 1 argument(s): x"),
        (("0",), "x must be a nonzero rational"),
        (("abc",), NOT_RATIONAL),
    ],
    "character-product": [
        ((), "expected 1 argument(s): x"),
        (("1", "1"), "expected 1 argument(s): x"),
        (("abc",), NOT_RATIONAL),
    ],
    "lambda-product": [
        ((), "expected 1 argument(s): x"),
        (("1", "1"), "expected 1 argument(s): x"),
        (("0",), "x must be a nonzero rational"),
        (("abc",), NOT_RATIONAL),
    ],
    "hilbert-product": [
        ((), "expected 2 argument(s): x y"),
        (("1", "1", "1"), "expected 2 argument(s): x y"),
        (("0", "1"), "x must be a nonzero rational"),
        (("1", "0"), "y must be a nonzero rational"),
        (("abc", "1"), NOT_RATIONAL),
        (("1", "abc"), NOT_RATIONAL),
    ],
    "gauss-product": [
        ((), "expected 2 argument(s): a b"),
        (("1", "1", "1"), "expected 2 argument(s): a b"),
        (("0", "1"), "a must be a nonzero rational"),
        (("abc", "1"), NOT_RATIONAL),
        (("1", "abc"), NOT_RATIONAL),
    ],
    "kernel-product": [
        ((), "expected 4 argument(s): x2 x1 accel T"),
        (("1", "1", "1", "1", "1"), "expected 4 argument(s): x2 x1 accel T"),
        (("1", "1", "1", "0"), "T must be a nonzero rational"),
        (("abc", "1", "1", "1"), NOT_RATIONAL),
        (("1", "abc", "1", "1"), NOT_RATIONAL),
        (("1", "1", "abc", "1"), NOT_RATIONAL),
        (("1", "1", "1", "abc"), NOT_RATIONAL),
    ],
    "gamma-product": [
        ((), "expected 1 argument(s): u"),
        (("1", "1"), "expected 1 argument(s): u"),
        (("abc",), NOT_COMPLEX),
    ],
    "beta-product": [
        ((), "expected 2 argument(s): a b"),
        (("1", "1", "1"), "expected 2 argument(s): a b"),
        (("abc", "1"), NOT_COMPLEX),
        (("1", "abc"), NOT_COMPLEX),
    ],
    "functional-equation": [
        ((), "expected 1 argument(s): a"),
        (("1", "1"), "expected 1 argument(s): a"),
        (("abc",), NOT_COMPLEX),
    ],
}


@pytest.fixture(scope="module")
def registry():
    return default_registry()


def _sample_digest(fam, height: int) -> str:
    h = hashlib.sha256()
    for seed in range(50):
        rng = random.Random(seed)
        args = fam.sample(rng, height)
        h.update(repr((args, fam.render(args), rng.getrandbits(32))).encode())
    return h.hexdigest()[:20]


def _parse_message(fam, tokens) -> str | None:
    try:
        fam.parse(list(tokens))
    except DomainError as e:
        return str(e)
    return None


def test_every_family_is_pinned(registry):
    assert set(registry.names()) == set(PINNED) == set(PARSE_ERRORS)


@pytest.mark.parametrize("name", sorted(PINNED))
def test_samples(registry, name):
    fam = registry.family(name)
    digests = tuple(_sample_digest(fam, h) for h in (1, 1000, 10**6))
    assert digests == PINNED[name][:3]


@pytest.mark.parametrize("name", sorted(PARSE_ERRORS))
def test_parse_errors(registry, name):
    fam = registry.family(name)
    assert [(tokens, _parse_message(fam, tokens)) for tokens, _ in PARSE_ERRORS[name]] == PARSE_ERRORS[name]


@pytest.mark.parametrize("name", sorted(PINNED))
def test_parse_error_order(registry, name):
    fam = registry.family(name)
    arity = len(fam.sample(random.Random(0), 10))
    h = hashlib.sha256()
    for tokens in itertools.product(("1", "0", "abc"), repeat=arity):
        h.update(repr((tokens, _parse_message(fam, tokens))).encode())
    assert h.hexdigest()[:20] == PINNED[name][3]
