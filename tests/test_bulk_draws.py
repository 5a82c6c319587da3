"""Bulk trial draws: the same draws, verdicts and generator state as the
per-trial loops of `validate_monoid` and `validate_space`, kept here as
references."""
import functools
import itertools
import operator
import random

import numpy as np
import pytest

import monofix.monoid
import monofix.spaces
from monofix import MonoidSpec, SpaceKind, relation_monoid, validate_monoid, validate_space
from monofix._rng import WordBlock, child_rng, choice_indices, distinct_draws, replay
from monofix._util import format_value
from monofix.catalog import MONOID_NAMES, SPACE_NAMES, get_monoid, get_space, hierarchical_rho
from monofix.monoid import _pair_repr
from monofix.spaces import diagonal, make_uniform_from_pseudometric
from monofix.reporting import CheckResult, ValidationReport


def test_choice_indices_match_scalar_choice():
    # every length to 300: powers of two keep every try, one more keeps
    # barely half of them
    count = 40
    for n in range(1, 301):
        bulk = random.Random(f"bulk/{n}")
        scalar = random.Random(f"bulk/{n}")
        idx, settle = choice_indices(bulk, n, count)
        states = [scalar.getstate()]
        draws = []
        for _ in range(count):
            draws.append(scalar.choice(range(n)))
            states.append(scalar.getstate())
        assert idx.tolist() == draws, n
        for d in (0, 1, count // 2, count, 0):
            settle(d)
            assert bulk.getstate() == states[d], (n, d)


def _temper(y):
    # the Mersenne Twister output function
    y ^= y >> 11
    y ^= (y << 7) & 0x9D2C5680
    y ^= (y << 15) & 0xEFC60000
    return (y ^ (y >> 18)) & 0xFFFFFFFF


def test_choice_indices_draws_again_when_short():
    # a generator whose next 624 words are all rejected for n = 3 (top two
    # bits 11): the first guess at the word count falls short many times
    src = random.Random(7)
    words = []
    while len(words) < 624:
        x = src.getrandbits(32)
        if _temper(x) >> 30 == 3:
            words.append(x)
    state = (3, tuple(words) + (0,), None)
    bulk, scalar = random.Random(), random.Random()
    bulk.setstate(state)
    scalar.setstate(state)
    idx, settle = choice_indices(bulk, 3, 5)
    assert idx.tolist() == [scalar.choice(range(3)) for _ in range(5)]
    settle(5)
    assert bulk.getstate() == scalar.getstate()


def test_choice_indices_reject_bad_arguments():
    rng = random.Random(0)
    for n, count in ((0, 1), (3, 0), (3, -1), (2**32, 1)):
        with pytest.raises(ValueError):
            choice_indices(rng, n, count)
    scalar = random.Random(0)
    assert choice_indices(rng, 2**32 - 1, 1)[0].tolist() == [scalar.choice(range(2**32 - 1))]


# The ranges that the catalog samplers draw from with randint: a chain length
# of the finite carriers (2 to 6) and of the real line (2 to 32), and an
# omega start, 1 to n_max - 65 (n_max 128, and 66, whose range is one value).
RANDINT_RANGES = ((2, 6), (2, 32), (1, 128 - 65), (1, 66 - 65))


def one_draw(n):
    """The end of one `_randbelow(n)` from each first word."""
    return lambda block, p: block.kept(n, p) + 1


@pytest.mark.parametrize("low, high", RANDINT_RANGES)
def test_replayed_randint_matches_scalar_randint(low, high):
    n = high - low + 1
    for seed in range(20):
        for count in (1, 7, 300):
            bulk, scalar = random.Random(f"{seed}/{count}"), random.Random(f"{seed}/{count}")
            block, starts = replay(bulk, count, 2, one_draw(n))
            got = block.value(n, block.kept(n, starts)) + low
            assert got.tolist() == [scalar.randint(low, high) for _ in range(count)], (seed, count)
            assert bulk.getstate() == scalar.getstate(), (seed, count)


@pytest.mark.parametrize("points", [8, 64, 5])
def test_replayed_choice_matches_scalar_choice(points):
    pts = tuple(range(100, 100 + points))
    for seed in range(20):
        bulk, scalar = random.Random(seed), random.Random(seed)
        block, starts = replay(bulk, 200, 2, one_draw(points))
        got = [pts[i] for i in block.value(points, block.kept(points, starts)).tolist()]
        assert got == [scalar.choice(pts) for _ in range(200)], seed
        assert bulk.getstate() == scalar.getstate(), seed


def test_replay_of_a_mixed_program_matches_scalar_draws():
    # randint(2, 6) points chosen from 64, then random(), as in a trial of
    # variable length: the next trial starts where the last draw ended
    def end(block, p):
        at = block.kept(5, p)
        return block.kept(64, at + 1, block.value(5, at) + 1) + 1 + 2

    for seed in range(20):
        bulk, scalar = random.Random(seed), random.Random(seed)
        block, starts = replay(bulk, 150, 14, end)
        at = block.kept(5, starts)
        n = block.value(5, at) + 2
        picks = block.value(64, block.kept(64, at[:, None] + 1, np.arange(6)))
        after = block.kept(64, at + 1, n - 1) + 1
        got = [(c[:k], u) for c, k, u in zip(picks.tolist(), n.tolist(), block.random(after).tolist())]
        want = []
        for _ in range(150):
            k = scalar.randint(2, 6)
            want.append(([scalar.choice(range(64)) for _ in range(k)], scalar.random()))
        assert got == want, seed
        assert bulk.getstate() == scalar.getstate(), seed


def test_replay_draws_again_when_short():
    # the next 624 words all have their top two bits set, so randint(0, 2)
    # rejects every one of them, and the first block is too short
    src = random.Random(7)
    words = []
    while len(words) < 624:
        x = src.getrandbits(32)
        if _temper(x) >> 30 == 3:
            words.append(x)
    state = (3, tuple(words) + (0,), None)
    bulk, scalar = random.Random(), random.Random()
    bulk.setstate(state)
    scalar.setstate(state)
    block, starts = replay(bulk, 5, 1, one_draw(3))
    assert block.value(3, block.kept(3, starts)).tolist() == [scalar.randint(0, 2) for _ in range(5)]
    assert bulk.getstate() == scalar.getstate()


def test_word_blocks_reject_bad_arguments():
    block = WordBlock(np.zeros(4, dtype="<u4"))
    for n in (0, 2**32):
        with pytest.raises(ValueError):
            block.kept(n, np.arange(2))
    with pytest.raises(ValueError):
        replay(random.Random(0), 0, 1, one_draw(3))


# ---------------------------------------------------------------------------
# per-trial reference loops


def reference_validate_monoid(spec, samples, trials, seed):
    rng = child_rng(seed, "validate_monoid")
    samples = list(samples)
    checks = []

    def axiom(name, arity, predicate):
        for t in range(trials):
            args = [rng.choice(samples) for _ in range(arity)]
            if not predicate(*args):
                checks.append(CheckResult(name, False, trials=t + 1, counterexample=_pair_repr(*args)))
                return
        checks.append(CheckResult(name, True, trials=trials))

    leq, eq, add = spec.leq, spec.eq, spec.combine
    if spec.relational:
        # a relation product is pure: compose each pair once, since a full
        # relation on 64 points composes with itself in about 25 ms
        add = functools.cache(add)
    axiom("associativity", 3, lambda a, b, c: eq(add(add(a, b), c), add(a, add(b, c))))
    axiom(
        "identity",
        1,
        lambda x: eq(add(spec.identity, x), x) and eq(add(x, spec.identity), x),
    )
    axiom("order_reflexive", 1, lambda x: leq(x, x))
    axiom("order_transitive", 3, lambda a, b, c: not (leq(a, b) and leq(b, c)) or leq(a, c))
    axiom("order_antisymmetric", 2, lambda a, b: not (leq(a, b) and leq(b, a)) or eq(a, b))
    axiom(
        "order_compatibility",
        4,
        lambda x1, y1, x2, y2: not (leq(x1, y1) and leq(x2, y2)) or leq(add(x1, x2), add(y1, y2)),
    )
    if spec.sup is not None:

        def riesz(a, b, z):
            s = spec.sup(a, b)
            if not (leq(a, s) and leq(b, s)):
                return False
            return not (leq(a, z) and leq(b, z) and not leq(s, z))

        axiom("riesz_supremum", 3, riesz)
    positive = [x for x in samples if spec.is_positive(x) and not eq(x, spec.identity)]
    checks.append(
        CheckResult(
            "positive_cone_nontrivial",
            bool(positive),
            trials=len(samples),
            counterexample=None if positive else "no sample above the identity",
        )
    )
    return ValidationReport(subject=spec.carrier_descr, checks=tuple(checks)), rng


def reference_validate_space(space, samples, trials, seed):
    rng = child_rng(seed, "validate_space")
    samples = list(samples)
    m, d = space.monoid, space.distance
    checks = []

    def sampled(name, predicate):
        for t in range(trials):
            x, y = rng.choice(samples), rng.choice(samples)
            issue = predicate(x, y)
            if issue is not None:
                checks.append(CheckResult(name, False, trials=t + 1, counterexample=issue))
                return
        checks.append(CheckResult(name, True, trials=trials))

    f = format_value
    sampled("symmetry", lambda x, y: None if m.eq(d(x, y), d(y, x)) else f"d({f(x)},{f(y)}) != d({f(y)},{f(x)})")
    sampled("positivity", lambda x, y: None if m.is_positive(d(x, y)) else f"d({f(x)},{f(y)}) outside the positive cone")
    if space.kind in (SpaceKind.DISLOCATED, SpaceKind.DISTANCE):
        sampled(
            "zero_implies_equal",
            lambda x, y: None
            if not m.eq(d(x, y), m.identity) or space.point_eq(x, y)
            else f"d=identity for distinct {f(x)}, {f(y)}",
        )
    if space.kind in (SpaceKind.PSEUDO, SpaceKind.DISTANCE):
        bad = None
        for t in range(trials):
            x = rng.choice(samples)
            if not m.eq(d(x, x), m.identity):
                bad = (t + 1, x)
                break
        checks.append(
            CheckResult(
                "equal_implies_zero",
                bad is None,
                trials=trials if bad is None else bad[0],
                counterexample=None if bad is None else f"d(x,x) != identity for x={f(bad[1])}",
            )
        )
    if space.kind is SpaceKind.DISLOCATED:
        k = min(trials, 256)
        dislocated = sum(1 for x in rng.choices(samples, k=k) if not m.eq(d(x, x), m.identity))
        checks.append(
            CheckResult(
                "dislocation_observed",
                True,
                trials=k,
                detail=f"{dislocated} sampled points with d(x,x) != identity",
            )
        )
    return ValidationReport(subject=space.point_descr, checks=tuple(checks)), rng


@pytest.fixture
def created_rngs(monkeypatch):
    """Every generator the validators create, in order."""
    made = []

    def recording(root, label):
        made.append(child_rng(root, label))
        return made[-1]

    monkeypatch.setattr(monofix.monoid, "child_rng", recording)
    monkeypatch.setattr(monofix.spaces, "child_rng", recording)
    return made


# Float vectors that break the axioms: 1e308 + 1e308 overflows, so
# associativity fails on some triples and holds on others, and the NaN
# entry makes a vector unequal to itself and not below itself.
BREAKING_VECTORS = (
    np.zeros(3),
    np.ones(3),
    np.full(3, 1e308),
    np.full(3, -1e308),
    np.array([0.5, np.nan, 0.5]),
    np.array([2.0, 0.0, 1.0]),
)
BREAKING_SPEC = MonoidSpec.real_entrywise(
    "real 3-vectors with an overflow and a NaN among the samples", np.zeros(3)
)
MONOID_CASES = {name: (e.spec, e.samples) for name in MONOID_NAMES for e in [get_monoid(name)]}
MONOID_CASES["breaking vectors"] = (BREAKING_SPEC, BREAKING_VECTORS)


def random_relations(points, count, density, seed):
    rng = random.Random(seed)
    return [frozenset((a, b) for a in points for b in points if rng.random() < density) for _ in range(count)]


# Relations that break the axioms.  An identity short of the diagonal is not
# neutral on the relations that touch the point it misses.  The monoid of an
# entourage space has the kernel of its pseudometric (pairs at distance 0) as
# identity, neutral on the distances and not on relations that the kernel
# does not saturate.  On 64 points a chunk holds 16 trials, and one sample
# in 40 touches the point that the identity misses, so most seeds fail past
# the first chunk.
_QUAD = tuple("abcd")
MONOID_CASES["relation, identity not neutral"] = (
    relation_monoid(_QUAD, identity=diagonal(_QUAD[:3])),
    (*random_relations(_QUAD[:3], 6, 0.3, 1), diagonal(_QUAD), frozenset({("a", "d")})),
)
_PAIRED, _ = make_uniform_from_pseudometric(
    range(8), lambda a, b: hierarchical_rho(a // 2 * 2, b // 2 * 2), [1.0, 0.5, 0.25, 0.125]
)
MONOID_CASES["relation, kernel identity"] = (
    _PAIRED.monoid,
    (*{_PAIRED.distance(a, b) for a in range(8) for b in range(8)}, *random_relations(range(8), 2, 0.2, 2)),
)
_POINTS64 = tuple(range(64))
MONOID_CASES["relation{64}"] = (get_monoid("relation{64}").spec, get_monoid("relation{64}").samples)
MONOID_CASES["relation{64}, identity not neutral"] = (
    relation_monoid(_POINTS64, identity=diagonal(_POINTS64[1:])),
    (
        *(r - {p for p in r if 0 in p} for r in random_relations(_POINTS64, 39, 0.02, 3)),
        frozenset({(0, 5), (5, 5)}),
    ),
)


@pytest.mark.parametrize("name", MONOID_CASES)
def test_validate_monoid_matches_per_trial_loop(name, created_rngs):
    spec, samples = MONOID_CASES[name]
    failing_trials = set()
    with np.errstate(over="ignore", invalid="ignore"):
        for seed in range(8):
            want, want_rng = reference_validate_monoid(spec, samples, 120, seed)
            got = validate_monoid(spec, samples, 120, seed=seed)
            assert got == want, seed
            assert created_rngs[-1].random() == want_rng.random(), seed
            failing_trials |= {c.trials for c in got.failures}
    if name in ("broken_subtraction", "breaking vectors") or name.startswith("relation,"):
        # failures found after the first trial, so the draws line up
        assert max(failing_trials) > 1, failing_trials
    if name == "relation{64}, identity not neutral":
        assert max(failing_trials) > 16, failing_trials  # past the first chunk
    if name.startswith("relation"):
        assert spec.relational


@pytest.mark.parametrize("name", SPACE_NAMES)
def test_validate_space_matches_per_trial_loop(name, created_rngs):
    entry = get_space(name)
    for seed, trials in itertools.product(range(16), (1, 7, 120, 1000)):
        want, want_rng = reference_validate_space(entry.space, entry.samples, trials, seed)
        got = validate_space(entry.space, entry.samples, trials, seed=seed)
        assert got == want, (seed, trials)
        assert created_rngs[-1].random() == want_rng.random(), (seed, trials)
        if entry.broken and trials >= 120:
            assert not got.ok


@pytest.mark.parametrize("trials", [0, -4])
def test_validators_reject_trial_counts_below_one(trials):
    monoid, space = get_monoid("real_nonneg"), get_space("real_abs")
    with pytest.raises(ValueError, match="trials must be at least 1"):
        validate_monoid(monoid.spec, monoid.samples, trials)
    with pytest.raises(ValueError, match="trials must be at least 1"):
        validate_space(space.space, space.samples, trials)
    with pytest.raises(ValueError, match="trials must be at least 1"):
        monofix.spaces.falsify_frechet_wilson(space.space, "weak", space.fw_sampler("weak"), trials)


# ---------------------------------------------------------------------------
# each distinct draw decided once


def first_draws(rng, n, trials, arity):
    """The index tuples of `trials` per-trial draws of `arity` `choice`
    calls each, with the trial of its first occurrence, in trial order."""
    first = {}
    for t in range(trials):
        first.setdefault(tuple(rng.choice(range(n)) for _ in range(arity)), t)
    return list(first.items())


def test_distinct_draws_yield_first_occurrences_in_trial_order():
    rng = random.Random(3)
    for arity in (1, 2, 3, 4):
        idx, _ = choice_indices(rng, 3, 50 * arity)
        flat = idx.tolist()
        want = {}
        for t in range(50):
            want.setdefault(tuple(flat[t * arity : (t + 1) * arity]), t)
        got = list(distinct_draws(idx, arity))
        assert got == [(t, key) for key, t in want.items()], arity
        assert len(got) < 50  # 3**arity tuples at most, so some repeat


def test_validate_monoid_combines_once_per_distinct_draw():
    # integer addition passes every axiom, so each axiom runs all trials;
    # `combine` logs its arguments, and a repeated draw must add nothing
    log = []

    def combine(a, b):
        log.append((a, b))
        return a + b

    spec = MonoidSpec("logged integers", combine, 0, operator.le, eq=operator.eq)
    samples, trials = (0, 1, 2, 3, 5), 60
    rng = child_rng(4, "validate_monoid")
    want = []
    associativity = first_draws(rng, 5, trials, 3)
    assert len(associativity) < trials  # some triples repeat
    for (a, b, c), _ in associativity:
        a, b, c = samples[a], samples[b], samples[c]
        want += [(a, b), (a + b, c), (b, c), (a, b + c)]
    for (x,), _ in first_draws(rng, 5, trials, 1):
        want += [(0, samples[x]), (samples[x], 0)]
    for arity in (1, 3, 2):  # the order axioms call no `combine`
        first_draws(rng, 5, trials, arity)
    for key, _ in first_draws(rng, 5, trials, 4):
        x1, y1, x2, y2 = (samples[i] for i in key)
        if x1 <= y1 and x2 <= y2:
            want += [(x1, x2), (y1, y2)]
    report = validate_monoid(spec, samples, trials, seed=4)
    assert report.ok
    assert log == want


def test_validate_space_measures_once_per_distinct_draw():
    # each ordered pair of samples is measured exactly once per call, in
    # row order, before any check draws: the checks decide on that table,
    # so no draw, repeated or not, measures anything more
    log = []

    def distance(x, y):
        log.append((x, y))
        return abs(x - y)

    real = get_monoid("real_nonneg")
    space = monofix.spaces.DistanceSpaceSpec(
        "logged reals", distance, SpaceKind.DISTANCE, real.spec, real.ladder
    )
    samples = (0.0, 1.0, 2.0, 4.0, 8.0, 16.0)
    for trials in (1, 80, 1000):
        log.clear()
        report = validate_space(space, samples, trials, seed=5)
        assert report.ok and [c.name for c in report.checks] == [
            "symmetry", "positivity", "zero_implies_equal", "equal_implies_zero"
        ]
        assert log == [(x, y) for x in samples for y in samples], trials


def test_first_failing_trial_is_the_first_draw_of_the_failing_tuple(created_rngs):
    # d(x, x) is 1 at the point 5 alone, and d(3, 4) != d(4, 3): each check
    # fails on the first trial to draw its failing tuple, which comes after
    # repeats of passing tuples and recurs later among the trials
    def distance(x, y):
        if x == y:
            return 1.0 if x == 5.0 else 0.0
        return abs(x - y) + (0.25 if (x, y) == (3.0, 4.0) else 0.0)

    real = get_monoid("real_nonneg")
    space = monofix.spaces.DistanceSpaceSpec(
        "reals, asymmetric at (3, 4), dislocated at 5", distance, SpaceKind.PSEUDO,
        real.spec, real.ladder,
    )
    samples, trials, seed = (0.0, 1.0, 2.0, 3.0, 4.0, 5.0), 200, 1
    want, want_rng = reference_validate_space(space, samples, trials, seed)
    rng, probe = child_rng(seed, "validate_space"), random.Random()
    failing = {}
    for name, arity, bad in (
        ("symmetry", 2, {(3, 4), (4, 3)}),
        ("positivity", 2, set()),
        ("equal_implies_zero", 1, {(5,)}),
    ):
        probe.setstate(rng.getstate())
        draws = [tuple(probe.choice(range(6)) for _ in range(arity)) for _ in range(trials)]
        t = next((t for t, key in enumerate(draws) if key in bad), None)
        if t is not None:
            assert len(set(draws[:t])) < t  # passing tuples repeat before it
            assert draws[t] in draws[t + 1 :]  # and the failing tuple recurs
            failing[name] = t + 1
        for _ in range(arity * (trials if t is None else t + 1)):
            rng.choice(samples)
    assert failing.keys() == {"symmetry", "equal_implies_zero"}
    got = validate_space(space, samples, trials, seed=seed)
    assert got == want
    assert {c.name: c.trials for c in got.failures} == failing
    assert created_rngs[-1].random() == want_rng.random() == rng.random()


@pytest.mark.parametrize("name, high", [("real_vector", 3), ("grid_function", 2)])
@pytest.mark.parametrize("m", [1, 3, 8, 4096])
def test_catalog_vector_samples_match_scalar_uniform_calls(name, high, m):
    # the seven random samples of the catalog entry are drawn in bulk; the
    # reference draws them one `rng.uniform(0, high)` call at a time
    rng = child_rng(0, f"{name}{m}-samples")
    want = [[rng.uniform(0, high) for _ in range(m)] for _ in range(7)]
    samples = get_monoid(f"{name}{{{m}}}").samples
    assert len(samples) == 10
    assert [s.tolist() for s in samples[3:]] == want
