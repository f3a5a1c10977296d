import math
import pickle
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from histmatch import core
from histmatch.core import (
    EARTH_RADIUS_M,
    EventLog,
    GroundTruth,
    Histogram,
    HistogramSet,
    PackedRows,
    aggregate_locations,
    build_histogram,
    filter_active_users,
    histograms_by_user,
    quantize_geo,
    split_by_period,
    suppress_and_renormalize,
    union_rows,
)
from histmatch.errors import (
    EmptyStringError,
    InvalidCoordinateError,
    ZeroMassAfterSuppressionError,
)
from tests.conftest import random_histogram, random_histogram_set


def log_of(*triples):
    return EventLog(*(tuple(zip(*triples)) or ((), (), ())))


class TestBuildHistogram:
    def test_direct_counts(self):
        h = build_histogram(["S1", "S1", "S2", "S3"])
        assert h.mass == {"S1": 0.5, "S2": 0.25, "S3": 0.25}
        assert h.sample_count == 4
        assert h.support_count == 3

    def test_degenerate(self):
        h = build_histogram(["S1"])
        assert h.mass == {"S1": 1.0}
        assert h.sample_count == 1

    def test_matches_independent_count(self, rng):
        # oracle: a separate counting pass over the same string
        symbols = [f"S{i}" for i in range(5)]
        string = [symbols[i] for i in rng.integers(0, 5, size=1000)]
        counts = {}
        for s in string:
            counts[s] = counts.get(s, 0) + 1
        h = build_histogram(string)
        assert h.sample_count == 1000
        for sym, c in counts.items():
            assert h.mass[sym] == c / 1000

    def test_empty_rejected(self):
        with pytest.raises(EmptyStringError):
            build_histogram([])

    def test_one_float_object_per_distinct_count(self, rng):
        events = ["e", "a", "a", "a", "b", "c", "b", "b", "d", "e"]
        h = build_histogram(events)
        assert list(h.mass) == ["e", "a", "b", "c", "d"]
        assert h.mass == {"e": 0.2, "a": 0.3, "b": 0.3, "c": 0.1, "d": 0.1}
        assert h.mass["a"] is h.mass["b"] and h.mass["c"] is h.mass["d"]
        # t = 200 draws over 1000 locations: far fewer counts than locations
        string = [f"L{i}" for i in rng.integers(0, 1000, size=200)]
        h = build_histogram(string)
        counts = {s: string.count(s) for s in h.mass}
        assert len({id(v) for v in h.mass.values()}) == len(set(counts.values())) < h.support_count
        assert all(h.mass[s] == c / 200 for s, c in counts.items())

    @given(st.lists(st.sampled_from("abcde"), min_size=1, max_size=50), st.integers(0, 2**32))
    @settings(max_examples=60, deadline=None)
    def test_permutation_invariant(self, events, seed):
        shuffled = list(events)
        random.Random(seed).shuffle(shuffled)
        assert build_histogram(events) == build_histogram(shuffled)


class TestSplitAndFilter:
    def test_half_open_boundary(self):
        log = log_of(("u", 10, "a"), ("u", 20, "a"), ("u", 30, "a"))
        first, second = split_by_period(log, 20)
        assert first.timestamps == (10,)
        assert second.timestamps == (20, 30)

    def test_empty_log(self):
        first, second = split_by_period(EventLog((), (), ()), 100)
        assert len(first) == 0 and len(second) == 0

    def test_boundary_below_everything(self):
        log = log_of(("u", 10, "a"), ("v", 20, "b"))
        first, second = split_by_period(log, 5)
        assert len(first) == 0
        assert len(second) == 2

    @given(st.lists(st.integers(0, 1000), max_size=60), st.integers(0, 1000))
    @settings(max_examples=60, deadline=None)
    def test_partition_property(self, stamps, boundary):
        log = log_of(*(("u", ts, "a") for ts in stamps))
        first, second = split_by_period(log, boundary)
        assert len(first) + len(second) == len(log)
        assert all(t < boundary for t in first.timestamps)
        assert all(t >= boundary for t in second.timestamps)
        merged = sorted(first.timestamps + second.timestamps)
        assert merged == sorted(stamps)

    def test_halves_keep_event_order(self):
        log = log_of(("u", 30, "c"), ("v", 5, "a"), ("u", 40, "d"), ("w", 10, "b"), ("v", 20, "e"))
        first, second = split_by_period(log, 20)
        assert first == log_of(("v", 5, "a"), ("w", 10, "b"))
        assert second == log_of(("u", 30, "c"), ("u", 40, "d"), ("v", 20, "e"))

    def test_active_users_intersection(self):
        a = log_of(("u1", 1, "a"), ("u2", 2, "b"))
        b = log_of(("u2", 3, "c"), ("u3", 4, "d"))
        assert filter_active_users(a, b) == {"u2"}

    def test_active_users_disjoint(self):
        a = log_of(("u1", 1, "a"))
        b = log_of(("u2", 2, "b"))
        assert filter_active_users(a, b) == set()

    def test_active_users_identical(self):
        a = log_of(("u1", 1, "a"), ("u2", 2, "b"))
        assert filter_active_users(a, a) == {"u1", "u2"}

    def test_histograms_by_user(self):
        log = log_of(("u1", 1, "a"), ("u1", 2, "a"), ("u1", 3, "b"), ("u2", 4, "c"))
        hset = histograms_by_user(log)
        assert hset.owners == ("u1", "u2")
        assert hset.histogram("u1").mass == {"a": 2 / 3, "b": 1 / 3}
        restricted = histograms_by_user(log, users={"u2"})
        assert restricted.owners == ("u2",)


class TestAggregate:
    def test_total_aggregation(self):
        h = Histogram(mass={"A": 0.3, "B": 0.7})
        out = aggregate_locations(h, {"A": "X", "B": "X"})
        assert out.mass == {"X": 1.0}

    def test_identity(self):
        h = Histogram(mass={"A": 0.3, "B": 0.7})
        assert aggregate_locations(h, {"A": "A", "B": "B"}) == h

    def test_partial_sums(self):
        h = Histogram(mass={"A": 0.25, "B": 0.25, "C": 0.5})
        out = aggregate_locations(h, {"A": "X", "B": "X", "C": "Y"})
        assert out.mass == {"X": 0.5, "Y": 0.5}

    def test_unmapped_ids_pass_through(self):
        h = Histogram(mass={"A": 0.25, "B": 0.75})
        out = aggregate_locations(h, {"A": "X"})
        assert out.mass == {"X": 0.25, "B": 0.75}

    def test_mass_conserved(self, rng):
        from tests.conftest import random_histogram

        for _ in range(50):
            h = random_histogram(rng, 20, max_support=8)
            mapping = {f"L{i}": f"G{int(rng.integers(0, 3))}" for i in range(20)}
            out = aggregate_locations(h, mapping)
            assert abs(math.fsum(out.mass.values()) - math.fsum(h.mass.values())) <= 1e-12


class TestQuantizeGeo:
    ORIGIN = (39.9, 116.3)

    def test_origin_cell(self):
        assert quantize_geo(39.9, 116.3, 250.0, self.ORIGIN) == "0:0"

    def test_floor_division(self):
        lat = self.ORIGIN[0] + math.degrees(150.0 / EARTH_RADIUS_M)
        lon = self.ORIGIN[1] + math.degrees(
            50.0 / (EARTH_RADIUS_M * math.cos(math.radians(self.ORIGIN[0])))
        )
        assert quantize_geo(lat, lon, 100.0, self.ORIGIN) == "1:0"

    def test_negative_offsets(self):
        lat = self.ORIGIN[0] - math.degrees(50.0 / EARTH_RADIUS_M)
        assert quantize_geo(lat, self.ORIGIN[1], 100.0, self.ORIGIN) == "-1:0"

    def test_nearby_points_share_cell(self):
        # oracle: compute both projected offsets directly and compare cells
        def offsets(lat, lon):
            north = math.radians(lat - self.ORIGIN[0]) * EARTH_RADIUS_M
            east = (
                math.radians(lon - self.ORIGIN[1])
                * EARTH_RADIUS_M
                * math.cos(math.radians(self.ORIGIN[0]))
            )
            return north, east

        # two points ~10 m apart, planted well inside a 1000 m cell
        a = (self.ORIGIN[0] + math.degrees(400.0 / EARTH_RADIUS_M), self.ORIGIN[1])
        b = (a[0] + math.degrees(10.0 / EARTH_RADIUS_M), a[1])
        na, ea = offsets(*a)
        nb, eb = offsets(*b)
        assert math.hypot(nb - na, eb - ea) == pytest.approx(10.0, abs=1e-6)
        assert (math.floor(na / 1000), math.floor(ea / 1000)) == (
            math.floor(nb / 1000),
            math.floor(eb / 1000),
        )
        assert quantize_geo(*a, 1000.0, self.ORIGIN) == quantize_geo(*b, 1000.0, self.ORIGIN)

    def test_non_finite_rejected(self):
        with pytest.raises(InvalidCoordinateError):
            quantize_geo(float("nan"), 0.0, 100.0, (0.0, 0.0))
        with pytest.raises(InvalidCoordinateError):
            quantize_geo(0.0, float("inf"), 100.0, (0.0, 0.0))

    @pytest.mark.parametrize("lat, side", [(1e308, 100.0), (39.9, 1e-320), (0.0, 5e-324)])
    def test_cell_index_overflow_rejected(self, lat, side):
        with pytest.raises(InvalidCoordinateError, match="overflows"):
            quantize_geo(lat, 116.3, side, (0.0, 0.0))

    def test_bad_cell_side(self):
        with pytest.raises(ValueError):
            quantize_geo(0.0, 0.0, 0.0, (0.0, 0.0))

    @pytest.mark.parametrize("side", [math.inf, math.nan, -math.inf])
    def test_non_finite_cell_side(self, side):
        with pytest.raises(ValueError, match="positive and finite"):
            quantize_geo(0.0, 0.0, side, (0.0, 0.0))


class TestSuppress:
    def test_proportional(self):
        h = Histogram(mass={"A": 0.5, "B": 0.3, "C": 0.2})
        out = suppress_and_renormalize(h, {"A", "B"})
        assert out.mass["A"] == pytest.approx(0.625, abs=1e-12)
        assert out.mass["B"] == pytest.approx(0.375, abs=1e-12)
        assert set(out.mass) == {"A", "B"}

    def test_superset_keeps_unchanged(self):
        h = Histogram(mass={"A": 0.5, "B": 0.5})
        assert suppress_and_renormalize(h, {"A", "B", "C"}) is h

    def test_zero_mass_error(self):
        h = Histogram(mass={"A": 1.0})
        with pytest.raises(ZeroMassAfterSuppressionError):
            suppress_and_renormalize(h, {"B"})

    def test_idempotent(self, rng):
        from tests.conftest import random_histogram

        for _ in range(30):
            h = random_histogram(rng, 12, max_support=8)
            keep = {f"L{i}" for i in rng.choice(12, size=6, replace=False)}
            if not any(loc in keep for loc in h.mass):
                keep.add(next(iter(h.mass)))
            once = suppress_and_renormalize(h, keep)
            twice = suppress_and_renormalize(once, keep)
            assert twice == once


class TestTypes:
    def test_histogram_validation(self):
        with pytest.raises(ValueError):
            Histogram(mass={})
        with pytest.raises(ValueError):
            Histogram(mass={"A": 0.0, "B": 1.0})
        with pytest.raises(ValueError):
            Histogram(mass={"A": 0.6, "B": 0.6})
        with pytest.raises(ValueError):
            Histogram(mass={"A": 1.0, "B": math.nan})

    @pytest.mark.parametrize("bad", [math.nan, 0.0, -0.5, math.inf, np.float64(math.nan), np.float32(0.0)])
    @pytest.mark.parametrize("at", [0, 1, 2])
    def test_histogram_rejects_non_positive_or_infinite_masses(self, bad, at):
        # ``min`` can pass over a NaN depending on where it sits, so each position is tried.
        values = [0.5, 0.5]
        values.insert(at, bad)
        with pytest.raises(ValueError, match="strictly positive|sums to (inf|nan)"):
            Histogram(mass=dict(zip("ABC", values)))

    def test_mass_tolerance(self):
        Histogram(mass={"A": 0.5, "B": 0.5 + 5e-10})

    def test_event_log_validation(self):
        with pytest.raises(ValueError, match="negative timestamp -1"):
            EventLog(("u", "v"), (5, -1), ("a", "b"))
        with pytest.raises(ValueError, match="columns differ in length"):
            EventLog(("u", "v"), (5,), ("a", "b"))
        with pytest.raises(ValueError, match="columns differ in length"):
            EventLog(("u",), (5,), ())

    def test_histogram_set_unique_owners(self):
        h = Histogram(mass={"A": 1.0})
        with pytest.raises(ValueError):
            HistogramSet(entries=(("u", h), ("u", h)))

    def test_ground_truth_injective(self):
        with pytest.raises(ValueError):
            GroundTruth(mapping={"x1": "u1", "x2": "u1"})
        t = GroundTruth(mapping={"x1": "u1", "x2": "u2"})
        assert t.inverse == {"u1": "x1", "u2": "x2"}

    def test_locations_first_use_order(self):
        s = HistogramSet(
            entries=(
                ("u1", Histogram(mass={"a": 0.5, "b": 0.5})),
                ("u2", Histogram(mass={"c": 1.0})),
            ),
        )
        assert s.locations == ("a", "b", "c")


def reference_pack(hset, locations):
    """(indptr, indices, data) of a set's rows over ``locations``, packed
    straight from the dicts with each row's columns ascending."""
    column = dict(zip(locations, range(len(locations))))
    indptr, indices, data = [0], [], []
    for h in hset.histograms:
        entries = sorted((column[loc], p) for loc, p in h.mass.items())
        indices += [c for c, _ in entries]
        data += [p for _, p in entries]
        indptr.append(len(indices))
    return indptr, indices, data


def assert_packed(rows, hset, locations):
    indptr, indices, data = reference_pack(hset, locations)
    assert rows.shape == (len(hset), len(locations))
    assert rows.indptr.tolist() == indptr
    assert rows.indices.tolist() == indices
    assert rows.data.tolist() == data


def assert_key_rows(hset):
    """``hset.rows`` hold each entry's row in its map's key order."""
    want = key_rows(hset)[2]
    assert hset.rows.shape == want.shape
    for name in ("indptr", "indices", "data"):
        assert getattr(hset.rows, name).tolist() == getattr(want, name).tolist()


def distinct_maps(hset):
    """The set's first entry of each distinct map, in set order."""
    entries = []
    for owner, h in hset.entries:
        if all(h.mass != g.mass for _, g in entries):
            entries.append((owner, h))
    return HistogramSet(tuple(entries))


def assert_union_packed(a, b):
    locations = tuple(dict.fromkeys(loc for s in (a, b) for h in s.histograms for loc in h.mass))
    first, second = union_rows(a, b)
    assert_packed(first, distinct_maps(a), locations)
    # ``second`` keeps its set's order of columns within a row.
    assert_packed(second.sorted(), distinct_maps(b), locations)
    distinct = a.row_classes[0]
    assert np.shares_memory(first.data, distinct.data) and np.shares_memory(first.indices, distinct.indices)


class TestPackedRows:
    def test_rows_match_reference(self, rng):
        hset = random_histogram_set(rng, 30, 40, max_support=8)
        assert hset.locations == tuple(dict.fromkeys(loc for h in hset.histograms for loc in h.mass))
        assert_key_rows(hset)
        assert hset.rows is hset.rows

    def test_union_seeded(self, rng):
        for _ in range(5):
            a = random_histogram_set(rng, 20, 30, max_support=8)
            b = random_histogram_set(rng, 25, 50, max_support=8)
            assert_union_packed(a, b)
            assert_union_packed(b, a)

    def test_union_shares_second_set_arrays(self, rng):
        a = random_histogram_set(rng, 20, 30, max_support=8)
        b = random_histogram_set(rng, 25, 50, max_support=8)
        _, second = union_rows(a, b)
        distinct = b.row_classes[0]
        assert np.shares_memory(second.data, distinct.data) and np.shares_memory(second.indptr, distinct.indptr)
        union = tuple(dict.fromkeys(a.locations + b.locations))
        indptr, indices, data = reference_pack(distinct_maps(b), union)
        for r in range(distinct.shape[0]):
            span = slice(indptr[r], indptr[r + 1])
            got = zip(second.indices[span].tolist(), second.data[span].tolist())
            assert sorted(got) == list(zip(indices[span], data[span]))

    def test_row_classes(self):
        half = {"A": 0.5, "B": 0.5}
        masses = [half, {"C": 1.0}, {"B": 0.5, "A": 0.5}, {"A": 0.5, "B": math.nextafter(0.5, 1.0)}, half]
        hset = HistogramSet(tuple((f"u{i}", Histogram(mass=dict(m), sample_count=i)) for i, m in enumerate(masses)))
        distinct, of_row = hset.row_classes
        assert of_row.tolist() == [0, 1, 0, 2, 0]
        assert_packed(distinct, HistogramSet(tuple(hset.entries[i] for i in (0, 1, 3))), hset.locations)
        assert hset.row_classes is hset.row_classes
        assert_key_rows(hset)

    def test_union_disjoint(self, rng):
        a = random_histogram_set(rng, 10, 20)
        b = HistogramSet(tuple((f"v{i}", random_histogram(rng, 20, 4, prefix="M")) for i in range(12)))
        assert_union_packed(a, b)
        assert_union_packed(b, a)

    def test_union_with_itself(self, rng):
        a = random_histogram_set(rng, 15, 25, max_support=6)
        assert_union_packed(a, a)
        # repeated objects and equal copies keep one row per distinct map
        pool = a.histograms[:4]
        picks = [1, 0, 1, 3, 0, 1]
        repeats = HistogramSet(
            tuple((f"u{i}", pool[j] if i % 2 else Histogram(mass=dict(pool[j].mass))) for i, j in enumerate(picks))
        )
        assert repeats.row_classes[0].shape[0] == 3
        assert_union_packed(repeats, repeats)
        assert_union_packed(repeats, a)
        assert_union_packed(a, repeats)

    def test_rows_are_read_only(self, rng):
        rows = random_histogram_set(rng, 5, 10).rows
        for array in (rows.data, rows.indices, rows.indptr):
            with pytest.raises(ValueError):
                array[0] = array[0]

    def test_pickled_rows_stay_read_only(self, rng):
        hset = random_histogram_set(rng, 8, 12)
        rows = hset.rows
        loaded = pickle.loads(pickle.dumps(hset))
        assert loaded.locations == hset.locations
        for name in ("data", "indices", "indptr"):
            array = getattr(loaded.rows, name)
            assert not array.flags.writeable
            assert np.array_equal(array, getattr(rows, name))

    def test_empty_set_pickles(self):
        empty = HistogramSet(())
        loaded = pickle.loads(pickle.dumps(empty))
        assert loaded == empty and len(loaded) == 0 and loaded.locations == ()
        assert loaded.rows.shape == (0, 0) and loaded.row_classes[0].shape == (0, 0)
        for a, b in zip(packed_arrays(loaded), packed_arrays(empty)):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestRepeatedObjects:
    """A set that repeats one ``Histogram`` object packs it once; its packed
    arrays equal those of a set of equal but distinct copies."""

    def sets(self, rng):
        pool = random_histogram_set(rng, 4, 12, max_support=6).histograms
        picks = [2, 0, 2, 2, 1, 0, 3, 1, 2]
        shared = HistogramSet(tuple((f"u{i}", pool[j]) for i, j in enumerate(picks)))
        copies = HistogramSet(
            tuple((f"u{i}", Histogram(mass=dict(pool[j].mass))) for i, j in enumerate(picks))
        )
        assert len({id(h) for h in shared.histograms}) == 4
        assert len({id(h) for h in copies.histograms}) == len(picks)
        return shared, copies

    @staticmethod
    def form_arrays(hset):
        distinct, of_row = hset.row_classes
        return [distinct.data, distinct.indices, distinct.indptr, of_row]

    def arrays(self, hset):
        return [hset.rows.data, hset.rows.indices, hset.rows.indptr, *self.form_arrays(hset)]

    def assert_same_pack(self, got, want):
        assert got.locations == want.locations
        assert got.rows.shape == want.rows.shape
        for a, b in zip(self.arrays(got), self.arrays(want)):
            assert a.dtype == b.dtype
            assert a.tobytes() == b.tobytes()
        assert_key_rows(got)

    def test_equal_to_distinct_copies(self, rng):
        shared, copies = self.sets(rng)
        self.assert_same_pack(shared, copies)
        assert shared.row_classes[1].tolist() == [0, 1, 0, 0, 2, 1, 3, 2, 0]
        assert_packed(shared.row_classes[0], distinct_maps(shared), shared.locations)

    def test_equal_after_pickling(self, rng):
        shared, copies = self.sets(rng)
        loaded = pickle.loads(pickle.dumps(shared))
        self.assert_same_pack(loaded, pickle.loads(pickle.dumps(copies)))
        self.assert_same_pack(loaded, shared)
        for array in self.arrays(loaded):
            assert not array.flags.writeable

    def test_row_classes_before_rows(self, rng):
        shared, copies = self.sets(rng)
        for a, b in zip(self.form_arrays(shared), self.form_arrays(copies)):
            assert a.dtype == b.dtype
            assert a.tobytes() == b.tobytes()


def key_rows(hset):
    """(owners, locations, rows) of a set, each row in its map's key order."""
    column = dict(zip(hset.locations, range(len(hset.locations))))
    indptr = np.cumsum([0] + [len(h.mass) for h in hset.histograms]).astype(np.int32)
    indices = np.array([column[loc] for h in hset.histograms for loc in h.mass], dtype=np.int32)
    data = np.array([p for h in hset.histograms for p in h.mass.values()], dtype=np.float64)
    return hset.owners, hset.locations, PackedRows(indptr, indices, data, len(column))


def packed_arrays(hset):
    distinct, of_row = hset.row_classes
    return [hset.rows.data, hset.rows.indices, hset.rows.indptr, distinct.data, distinct.indices, distinct.indptr, of_row]


class TestFromRows:
    def test_same_set_and_form_as_from_maps(self, rng):
        for hset in (random_histogram_set(rng, 25, 40, 9), HistogramSet(())):
            built = HistogramSet.from_rows(*key_rows(hset))
            assert "entries" not in vars(built)
            assert len(built) == len(hset) and built.owners == hset.owners and built.locations == hset.locations
            assert built == hset
            assert [list(h.mass.items()) for h in built.histograms] == [list(h.mass.items()) for h in hset.histograms]
            for a, b in zip(packed_arrays(built), packed_arrays(hset)):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
            if len(hset):
                assert built.histogram(hset.owners[-1]).mass == hset.histograms[-1].mass

    def test_equal_rows_share_one_row(self):
        half = {"a": 0.5, "b": 0.5}
        hset = HistogramSet(tuple((f"u{i}", Histogram(mass=dict(m))) for i, m in enumerate([half, {"c": 1.0}, {"b": 0.5, "a": 0.5}])))
        built = HistogramSet.from_rows(*key_rows(hset))
        assert built.row_classes[1].tolist() == [0, 1, 0]
        assert list(built.histograms[2].mass) == ["b", "a"]

    def test_colliding_hashes_still_compare_rows(self, rng, monkeypatch):
        hset = random_histogram_set(rng, 12, 15, 5)
        repeated = HistogramSet(hset.entries + tuple((f"v{i}", h) for i, h in enumerate(hset.histograms[:4])))
        want = HistogramSet.from_rows(*key_rows(repeated))
        monkeypatch.setattr(core, "hash", lambda key: 0, raising=False)  # every row in one bucket
        got = HistogramSet.from_rows(*key_rows(repeated))
        for a, b in zip(packed_arrays(got), packed_arrays(want)):
            assert a.tobytes() == b.tobytes()
        assert got.row_classes[0].shape[0] < len(repeated)

    def test_rows_become_read_only(self, rng):
        owners, locations, rows = key_rows(random_histogram_set(rng, 5, 8))
        built = HistogramSet.from_rows(owners, locations, rows)
        for array in (rows.data, rows.indices, rows.indptr, built.rows.data):
            with pytest.raises(ValueError):
                array[0] = array[0]
        with pytest.raises(AttributeError):
            built.owners = ()

    @pytest.mark.parametrize(
        "data, indices, indptr, owners, locations, message",
        [
            ([0.5, 0.5], [0, 0], [0, 2], ["u"], ["a"], "appears twice"),
            ([0.5, 0.5, 1.0], [0, 1, 1], [0, 2, 3], ["u", "u"], ["a", "b"], "owner ids must be unique"),
            ([1.0, 1.0], [0, 1], [0, 1, 2], ["u", "v"], ["a", "a"], "locations must be distinct"),
            ([1.0, 1.0], [1, 0], [0, 1, 2], ["u", "v"], ["a", "b"], "first use"),
            ([1.0], [0], [0, 1, 1], ["u", "v"], ["a"], "at least one entry"),
            ([0.5, 0.6], [0, 1], [0, 2], ["u"], ["a", "b"], "sums to 1.1"),
            ([1.5, -0.5], [0, 1], [0, 2], ["u"], ["a", "b"], "strictly positive"),
            ([math.nan], [0], [0, 1], ["u"], ["a"], "strictly positive"),
            ([math.inf], [0], [0, 1], ["u"], ["a"], "strictly positive"),
            ([1.0], [0], [0, 1], ["u", "v"], ["a"], "rows of shape"),
            ([1.0], [1], [0, 1], ["u"], ["a", "b"], "first use"),  # column 0 unused
        ],
    )
    def test_invalid_rows(self, data, indices, indptr, owners, locations, message):
        rows = PackedRows(np.array(indptr, dtype=np.int32), np.array(indices, dtype=np.int32), np.array(data), max(indices) + 1)
        with pytest.raises(ValueError, match=message):
            HistogramSet.from_rows(owners, locations, rows)

    @pytest.mark.parametrize(
        "indptr, indices, data, width, message",
        [
            ([1, 2], [0, 1], [0.5, 0.5], 2, "start at 0"),  # indptr starts past 0
            ([0, 2, 1, 2], [0, 1], [0.5, 0.5], 2, "never decrease"),
            ([0, 1], [0, 1], [0.5, 0.5], 2, "end at the number of entries"),  # indptr ends before the data
            ([0, 2], [0, 1, 1], [0.5, 0.5], 2, "end at the number of entries"),  # more indices than masses
            ([0, 2], [0, 2], [0.5, 0.5], 2, r"lie in \[0, 2\)"),  # a column past the width
            ([0, 2], [-1, 0], [0.5, 0.5], 2, r"lie in \[0, 2\)"),  # a negative column
        ],
    )
    def test_malformed_rows(self, indptr, indices, data, width, message):
        with pytest.raises(ValueError, match=message):
            rows = PackedRows(np.array(indptr, dtype=np.int32), np.array(indices, dtype=np.int32), np.array(data), width)
            HistogramSet.from_rows(["u"] * (len(indptr) - 1), ["a", "b"], rows)

    @pytest.mark.parametrize("off", [0.0, 5e-10, 1e-9, -1e-9, 2e-9, -3e-9])
    def test_mass_tolerance_as_histogram(self, off):
        mass = {"a": 0.25, "b": 0.75 + off}
        rows = PackedRows(np.array([0, 2], dtype=np.int32), np.array([0, 1], dtype=np.int32), np.array(list(mass.values())), 2)
        try:
            Histogram(mass=dict(mass))
        except ValueError as exc:
            with pytest.raises(ValueError, match=re.escape(str(exc))):
                HistogramSet.from_rows(["u"], ["a", "b"], rows)
        else:
            assert HistogramSet.from_rows(["u"], ["a", "b"], rows).histograms[0].mass == mass
