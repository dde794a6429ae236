"""The pure-Python stream reproduces ``numpy.random.default_rng``.

Every suite circuit is built from these streams, so the draws are
pinned as literals recorded from numpy: the pins run everywhere, and the
differential against numpy itself runs where numpy is installed.
"""

import random

import pytest

from repro.rng import default_rng

SEQ = (3, 1, 4, 1, 5, 9, 2, 6)

#: call -> how to make it on a stream
CALLS = {
    "random()": lambda g: g.random(),
    "integers(0, 100)": lambda g: g.integers(0, 100),
    "integers(-50, 50)": lambda g: g.integers(-50, 50),
    "integers(0, 2**40)": lambda g: g.integers(0, 2**40),
    "integers(-2**62, 2**62)": lambda g: g.integers(-(2**62), 2**62),
    "choice(SEQ)": lambda g: g.choice(SEQ),
    "choice(30, 6, replace=False)": lambda g: list(g.choice(30, 6, False)),
    "bytes(1)": lambda g: g.bytes(1).hex(),
    "bytes(5)": lambda g: g.bytes(5).hex(),
    "bytes(8)": lambda g: g.bytes(8).hex(),
}

#: one stream through every call kind: 32-bit draws split a 64-bit word
#: and keep its high half for the next one, which ``random()`` skips
MIXED = [
    lambda g: g.integers(0, 100),
    lambda g: g.random(),
    lambda g: g.bytes(0).hex(),  # numpy still draws one 32-bit word
    lambda g: g.integers(0, 100),
    lambda g: g.bytes(5).hex(),
    lambda g: g.integers(-7, 2**40),
    lambda g: g.integers(0, 2),
    lambda g: list(g.choice(12, 4, False)),
    lambda g: g.integers(0, 3),
]

#: seed -> call -> the first three draws of a fresh numpy stream, and
#: ``mixed`` -> one pass of MIXED (recorded with numpy 2.4)
PINS = {
    0: {
        "random()": [0.6369616873214543, 0.2697867137638703, 0.04097352393619469],
        "integers(0, 100)": [85, 63, 51],
        "integers(-50, 50)": [35, 13, 1],
        "integers(0, 2**40)": [700346781657, 296633628802, 45050865998],
        "integers(-2**62, 2**62)": [1263248596961149231, -2123342786782762096, -4233771963502889892],
        "choice(SEQ)": [2, 9, 5],
        "choice(30, 6, replace=False)": [[7, 16, 13, 8, 1, 21], [21, 13, 22, 18, 16, 27], [0, 10, 16, 1, 24, 28]],
        "bytes(1)": ["5f", "cf", "21"],
        "bytes(5)": ["5f82c2d9cf", "21d7d982f8", "b8e8cd4ea9"],
        "bytes(8)": ["5f82c2d9cfeb0fa3", "21d7d982f8bd1045", "b8e8cd4ea93d7d0a"],
        "mixed": [85, 0.2697867137638703, "", 30, "a93d7d0a1d", 894200084523, 0, [5, 9, 10, 7], 1],
    },
    1: {
        "random()": [0.5118216247002567, 0.9504636963259353, 0.14415961271963373],
        "integers(0, 100)": [47, 51, 75],
        "integers(-50, 50)": [-3, 1, 25],
        "integers(0, 2**40)": [562753827705, 1045045885889, 158505170440],
        "integers(-2**62, 2**62)": [109035242690540159, 4154794260310873139, -3282048277625303962],
        "choice(SEQ)": [1, 5, 2],
        "choice(30, 6, replace=False)": [[20, 13, 26, 11, 4, 1], [19, 7, 22, 11, 10, 27], [9, 22, 28, 23, 13, 20]],
        "bytes(1)": ["ff", "f3", "66"],
        "bytes(5)": ["ffe42279f3", "66a852c1bb", "cd18ec08f6"],
        "bytes(8)": ["ffe42279f3bd0683", "66a852c1bb9651f3", "cd18ec08f6a4e724"],
        "mixed": [47, 0.9504636963259353, "", 3, "f6a4e724d2", 342862307386, 1, [7, 3, 9, 4], 1],
    },
    7: {
        "random()": [0.625095466604667, 0.8972138009695755, 0.7756856902451935],
        "integers(0, 100)": [94, 62, 68],
        "integers(-50, 50)": [44, 12, 18],
        "integers(0, 2**40)": [687299734001, 986497006767, 852875435924],
        "integers(-2**62, 2**62)": [1153802028618786117, 3663650664515581258, 2542751686368525489],
        "choice(SEQ)": [6, 9, 9],
        "choice(30, 6, replace=False)": [[28, 18, 25, 23, 16, 29], [13, 3, 0, 23, 21, 28], [8, 27, 7, 28, 13, 19]],
        "bytes(1)": ["8b", "a9", "95"],
        "bytes(5)": ["8b4ae5f1a9", "956a26afbc", "62f90a945f"],
        "bytes(8)": ["8b4ae5f1a94106a0", "956a26afbccdafe5", "62f90a945f5693c6"],
        "mixed": [94, 0.8972138009695755, "", 57, "5f5693c642", 330036320521, 0, [0, 2, 10, 8], 2],
    },
    5000: {
        "random()": [0.05534631885740671, 0.35547339438481984, 0.803832167433649],
        "integers(0, 100)": [44, 5, 48],
        "integers(-50, 50)": [-6, -45, -2],
        "integers(0, 2**40)": [60853921138, 390847130491, 883822814873],
        "integers(-2**62, 2**62)": [-4101206328735134699, -1333022652812590599, 2802357117004497600],
        "choice(SEQ)": [1, 3, 1],
        "choice(30, 6, replace=False)": [[1, 12, 17, 9, 24, 11], [12, 11, 2, 23, 16, 19], [7, 0, 20, 24, 28, 13]],
        "bytes(1)": ["2a", "25", "f3"],
        "bytes(5)": ["2a18517225", "f3031d7beb", "8085ae99e6"],
        "bytes(8)": ["2a185172252d2b0e", "f3031d7beb4d005b", "8085ae99e6f1c7cd"],
        "mixed": [44, 0.35547339438481984, "", 60, "e6f1c7cdef", 194954343411, 0, [8, 5, 2, 4], 1],
    },
    2**33 + 5: {
        "random()": [0.23772096442823154, 0.42782131249807576, 0.5914133521906731],
        "integers(0, 100)": [79, 23, 71],
        "integers(-50, 50)": [29, -27, 21],
        "integers(0, 2**40)": [261376964554, 470394507702, 650265857555],
        "integers(-2**62, 2**62)": [-2419097122545887641, -665730887962127203, 843139356390612837],
        "choice(SEQ)": [2, 1, 9],
        "choice(30, 6, replace=False)": [[26, 2, 19, 6, 17, 11], [24, 5, 18, 12, 3, 21], [16, 4, 12, 27, 15, 19]],
        "bytes(1)": ["ce", "f7", "3a"],
        "bytes(5)": ["ce2cf7caf7", "3a2906b691", "cbbea0138e"],
        "bytes(8)": ["ce2cf7caf747db3c", "3a2906b691b2856d", "cbbea0138edd6697"],
        "mixed": [79, 0.42782131249807576, "", 7, "8edd669709", 58653690216, 1, [10, 9, 4, 2], 0],
    },
}


@pytest.mark.parametrize("seed", sorted(PINS))
@pytest.mark.parametrize("call", sorted(CALLS))
def test_first_draws_match_numpy(seed, call):
    stream = default_rng(seed)
    assert [CALLS[call](stream) for _ in range(3)] == PINS[seed][call]


@pytest.mark.parametrize("seed", sorted(PINS))
def test_mixed_calls_match_numpy(seed):
    stream = default_rng(seed)
    assert [call(stream) for call in MIXED] == PINS[seed]["mixed"]


def test_empty_range_rejected():
    with pytest.raises(ValueError):
        default_rng(0).integers(3, 3)


def test_out_of_range_forms_rejected():
    stream = default_rng(0)
    with pytest.raises(ValueError):
        stream.choice(20000, 1000, False)  # numpy's tail-shuffle branch
    with pytest.raises(ValueError):
        stream.choice(5, 6, False)
    with pytest.raises(ValueError):
        default_rng(-1)


def _random_call(picker):
    """One call of a mixed script, as ``(method name, args)``."""
    kind = picker.randrange(7)
    if kind == 0:
        return "random", ()
    if kind == 1:
        low = picker.randrange(-50, 50)
        return "integers", (low, low + picker.randrange(1, 300))
    if kind == 2:
        low = picker.choice((0, 5, -(2**40), -(2**63)))
        span = picker.choice((1, 2, 3 << 30, 2**32 - 1, 2**32 + 1, 2**40, 3 << 62))
        return "integers", (low, min(low + span, 2**63))
    if kind == 3:
        return "choice", ([picker.randrange(100) for _ in range(picker.randrange(1, 9))],)
    if kind == 4:
        n = picker.randrange(1, 40)
        return "choice", (n, picker.randrange(n + 1), False)
    if kind == 5:
        return "bytes", (picker.randrange(13),)
    return "integers", (0, 2)


def _plain(value):
    """A numpy draw as the plain Python value the pure stream returns."""
    return value.tolist() if hasattr(value, "tolist") else value


def test_differential_against_numpy():
    np = pytest.importorskip("numpy", exc_type=ImportError)
    seeds = list(range(64)) + [2**33 + 5, 123456789012345, 2**64 + 3]
    for seed in seeds:
        picker = random.Random(seed)
        ours, theirs = default_rng(seed), np.random.default_rng(seed)
        for step in range(300):
            method, args = _random_call(picker)
            expected = _plain(getattr(theirs, method)(*args))
            assert getattr(ours, method)(*args) == expected, (seed, step, method, args)
