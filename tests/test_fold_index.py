"""The predictor's fold-progression index against its definition.

A fold of ``folded`` blocks translating by ``w`` lines touches
``{b + k*w : b in base, 1 <= k <= folded}``.  ``_Fold`` answers membership
with one bisect over residue-keyed bases; these tests hold it to the
brute-force ``divmod`` rule over seeded random cases and at every edge of
the window, and hold ``_fresh_stable`` (its vectorized consumer) to the
per-base progression scan it replaced.  ``_horizon``, which picks the
footprint offsets whose translates stay fresh, is held to its definition
too, and kernels whose folds depend on it to the simulator.
"""

import random

import numpy as np
import pytest

from repro.analysis.predict import (
    _Fold,
    _fresh_stable,
    _horizon,
    predict_misses,
)
from repro.cache.config import CacheConfig
from repro.experiments.runner import Runner

pytestmark = pytest.mark.predict


def brute_member(line, base, w, folded):
    for b in base:
        k, r = divmod(line - b, w)
        if r == 0 and 1 <= k <= folded:
            return True
    return False


def check(base, w, folded, lines):
    fold = _Fold(np.asarray(base, dtype=np.int64), w, folded)
    want = [brute_member(x, base, w, folded) for x in lines]
    assert [fold.contains(x) for x in lines] == want
    got = fold.member(np.asarray(lines, dtype=np.int64)).tolist()
    assert got == want
    return want


class TestMembershipMatchesDefinition:
    @pytest.mark.parametrize("seed", range(40))
    def test_seeded_random_cases(self, seed):
        rng = random.Random(seed)
        w = rng.choice([-1, 1]) * rng.choice([1, 2, 3, 5, 8, 64, 97])
        folded = rng.randint(1, 12)
        spread = rng.randint(1, 400)
        base = [rng.randint(-spread, spread)
                for _ in range(rng.randint(1, 30))]
        lo = min(base) - (folded + 2) * abs(w)
        hi = max(base) + (folded + 2) * abs(w)
        lines = [rng.randint(lo, hi) for _ in range(300)]
        # every true member too, so both verdicts are well represented
        lines += [b + k * w for b in base for k in range(0, folded + 2)]
        check(base, w, folded, lines)

    @pytest.mark.parametrize("w", [1, -1, 4, -4, 33, -33])
    def test_window_edges(self, w):
        base, folded = [10, 17, 23], 6
        for b in base:
            at_edges = [b + w, b + folded * w]
            outside = [b, b + (folded + 1) * w]
            assert check(base, w, folded, at_edges) == [True, True]
            # one step outside the window is a member only if another
            # base's progression happens to cover it
            check(base, w, folded, outside)
        lone = [5]
        assert check(lone, w, folded, [5, 5 + (folded + 1) * w]) == [
            False, False,
        ]

    @pytest.mark.parametrize("w", [1, -1, 7, -7])
    def test_duplicate_bases(self, w):
        base = [3, 3, 3, 40, 40]
        lines = list(range(-100, 150))
        check(base, w, 5, lines)
        fold = _Fold(np.asarray(base, dtype=np.int64), w, 5)
        assert len(fold.key_list) == 2

    def test_empty_residues(self):
        # w = 8 but every base is 0 mod 8: residues 1..7 hold nothing
        base = [0, 16, 64]
        lines = list(range(-50, 200))
        want = check(base, 8, 4, lines)
        assert not any(v for x, v in zip(lines, want) if x % 8)

    def test_unit_shift_covers_a_contiguous_run(self):
        # |w| = 1: the progression of b is the run b+1 .. b+folded
        assert check([0], 1, 3, [-1, 0, 1, 3, 4]) == [
            False, False, True, True, False,
        ]
        assert check([0], -1, 3, [1, 0, -1, -3, -4]) == [
            False, False, True, True, False,
        ]

    def test_single_block_fold(self):
        assert check([12, 30], 9, 1, [12, 21, 30, 39, 48]) == [
            False, True, False, True, False,
        ]


def old_fresh_stable(forever_fresh, w, start, num_units, entry_seen,
                     entry_folds):
    """``_fresh_stable`` as it was before the index: one scan per base."""
    if len(forever_fresh) == 0 or start >= num_units:
        return True
    if len(entry_seen) == 0 and not entry_folds:
        return True
    span = num_units - start
    ts = np.arange(start, num_units, dtype=np.int64) * w
    lines = (forever_fresh[:, None] + ts[None, :]).ravel()
    if len(entry_seen):
        idx = np.searchsorted(entry_seen, lines)
        idx[idx == len(entry_seen)] = 0
        member = entry_seen[idx] == lines
    else:
        member = np.zeros(lines.shape, dtype=bool)
    for fbase, fw, fhi in entry_folds:
        for b in fbase:
            k, r = np.divmod(lines - int(b), fw)
            member |= (r == 0) & (k >= 1) & (k <= fhi)
    counts = member.reshape(len(forever_fresh), span).sum(axis=1)
    return bool(np.all((counts == 0) | (counts == span)))


class TestFreshStableMatchesScan:
    @pytest.mark.parametrize("seed", range(60))
    def test_same_verdicts(self, seed):
        rng = random.Random(1000 + seed)
        w = rng.choice([-1, 1]) * rng.randint(1, 12)
        num_units = rng.randint(2, 20)
        start = rng.randint(0, num_units)
        fresh = np.unique(np.asarray(
            [rng.randint(0, 60) for _ in range(rng.randint(0, 6))],
            dtype=np.int64,
        ))
        seen = np.unique(np.asarray(
            [rng.randint(-100, 300) for _ in range(rng.randint(0, 20))],
            dtype=np.int64,
        ))
        triples = []
        for _ in range(rng.randint(0, 3)):
            fw = rng.choice([-1, 1]) * rng.randint(1, 12)
            fbase = [rng.randint(-50, 200) for _ in range(rng.randint(1, 8))]
            triples.append((fbase, fw, rng.randint(1, 15)))
        folds = tuple(
            _Fold(np.asarray(fb, dtype=np.int64), fw, fhi)
            for fb, fw, fhi in triples
        )
        assert _fresh_stable(fresh, w, start, num_units, seen, folds) == (
            old_fresh_stable(fresh, w, start, num_units, seen, triples)
        )

    def test_stable_and_unstable_examples(self):
        # a fold covering every translate of offset 0 keeps it stable;
        # one covering only part of the span makes it drift
        fresh = np.asarray([0], dtype=np.int64)
        empty = np.empty(0, dtype=np.int64)
        whole = (_Fold(np.asarray([-4], dtype=np.int64), 4, 10),)
        part = (_Fold(np.asarray([-4], dtype=np.int64), 4, 2),)
        assert _fresh_stable(fresh, 4, 1, 6, empty, whole)
        assert not _fresh_stable(fresh, 4, 1, 6, empty, part)


def brute_horizon(u0, w, num_units):
    """(largest self-cover lag, offsets never self-covered) by search.

    Offset ``u``'s translate in block ``t`` was touched by block ``t - k``
    iff ``u + k*w`` is an offset; only lags below ``num_units`` happen.
    """
    offsets = set(u0)
    lags = {}
    for u in u0:
        ks = [k for k in range(1, num_units) if u + k * w in offsets]
        if ks:
            lags[u] = min(ks)
    m = max(lags.values(), default=1)
    return m, sorted(u for u in u0 if u not in lags)


class TestHorizonMatchesDefinition:
    @pytest.mark.parametrize("seed", range(40))
    def test_seeded_footprints(self, seed):
        rng = random.Random(2000 + seed)
        w = rng.choice([-1, 1]) * rng.randint(1, 9)
        num_units = rng.randint(2, 12)
        u0 = sorted({rng.randint(0, 80) for _ in range(rng.randint(1, 25))})
        m, fresh = _horizon(np.asarray(u0, dtype=np.int64), w, num_units)
        assert (m, sorted(fresh.tolist())) == brute_horizon(u0, w, num_units)

    @pytest.mark.parametrize("w", [1, -1])
    def test_leading_edge_is_fresh(self, w):
        # blocks moving up touch new lines above the footprint, blocks
        # moving down below it
        _m, fresh = _horizon(np.asarray([0, 1, 5], dtype=np.int64), w, 6)
        assert fresh.tolist() == ([5] if w > 0 else [0])


class TestColdCountsAcrossFolds:
    """Kernels whose folds hinge on the fresh offsets, against simulation.

    Each folds a unit after earlier units have touched part of its
    translates, so a fold admitted on the wrong offsets miscounts cold
    misses while every other counter still agrees.
    """

    @pytest.mark.parametrize("name,size,cache", [
        ("hydro2d", 16, CacheConfig(1024, 4, 1)),
        ("hydro2d", 48, CacheConfig(2048, 32, 1)),
        ("simple", 24, CacheConfig(1024, 4, 1)),
        ("simple", 32, CacheConfig(2048, 32, 1)),
    ])
    def test_matches_simulation(self, name, size, cache):
        runner = Runner()
        request = runner.request_for(name, "original", cache, size=size)
        prog, layout = runner.materialize(request)
        pred = predict_misses(prog, layout, cache).require()
        assert pred.folded_accesses > 0
        assert pred.stats == runner.execute(request)
