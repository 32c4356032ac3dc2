"""Knowledge-base loading, indexing, and determinism queries."""

from __future__ import annotations

import tempfile
from operator import attrgetter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from detmask.errors import DanglingReference, DataError, MalformedLine
from detmask.kb import (
    Triplet,
    build_kb,
    is_deterministic,
    load_kb,
    load_kb_dir,
    load_unique_object_flags,
    objects_for,
    predicates_between,
    write_kb_dir,
)
from detmask.kb import _triplet_rows
from oracles import (so_index_oracle, sp_index_oracle, triplet_rows_oracle,
                     unique_object_flags_oracle)
from worldgen import make_world

TRIPLETS = "A\tdirectedBy\tB\nC\tdirectedBy\tB\nC\tdirectedBy\tD\n# comment\n\nA\tdirectedBy\tB\n"
ENTITIES = "A\tWar Horse\nB\tSteven Spielberg\tSpielberg\nC\tJaws\nD\tOther Cut\n"
PREDICATES = "directedBy\tdirected by|director\n"


def load_tables(tmp_path, triplets=TRIPLETS, entities=ENTITIES, predicates=PREDICATES):
    """``load_kb`` of the three tables, written to files under ``tmp_path``."""
    paths = []
    for name, text in (("triplets", triplets), ("entities", entities),
                       ("predicates", predicates)):
        paths.append(tmp_path / f"{name}.tsv")
        paths[-1].write_text(text, encoding="utf-8")
    return load_kb(*paths)


class TestLoading:
    def test_round_trip_counts(self, tmp_path):
        kb = load_tables(tmp_path)
        assert len(kb.triplets) == 3  # duplicate line collapsed
        assert kb.entity_aliases["B"] == ("Steven Spielberg", "Spielberg")
        assert kb.predicate_aliases["directedBy"] == ("directed by", "director")

    def test_comments_and_blanks_ignored(self, tmp_path):
        kb = load_tables(tmp_path)
        assert Triplet("A", "directedBy", "B") in kb.triplets

    def test_malformed_field_count(self, tmp_path):
        with pytest.raises(MalformedLine):
            load_tables(tmp_path, triplets="A\tB\n")

    def test_malformed_id_with_space(self, tmp_path):
        with pytest.raises(MalformedLine):
            load_tables(tmp_path, triplets="A b\tp\tC\n")

    def test_id_whitespace_is_str_isspace(self, tmp_path):
        """Padding of any Unicode whitespace is stripped; whitespace inside an id
        is an error that names the stripped id."""
        kb = load_tables(tmp_path, triplets="\u2003A\x1f\tdirectedBy\tB\u00a0\n")
        assert kb.triplets == frozenset({Triplet("A", "directedBy", "B")})
        for bad in ("A\x1cb", "A\u00a0b", "\u2003"):
            with pytest.raises(MalformedLine) as info:
                load_tables(tmp_path, triplets=f" {bad} \tdirectedBy\tB\n")
            assert str(info.value) == f"triplets.tsv:1: bad subject id {bad.strip()!r}"

    def test_id_starting_with_hash_rejected(self, tmp_path):
        """A padded ``#`` id would be written as a comment line, so it is no id."""
        for table in ("triplets", "entities"):
            text = {"triplets": TRIPLETS + "A\tdirectedBy\t #C\n",
                    "entities": ENTITIES + " #C\tcomment\n"}[table]
            with pytest.raises(MalformedLine) as info:
                load_tables(tmp_path, **{table: text})
            assert str(info.value).endswith(" id '#C'")

    def test_duplicate_entity_id_rejected(self, tmp_path):
        with pytest.raises(MalformedLine):
            load_tables(tmp_path, entities=ENTITIES + "A\tAgain\n")

    def test_dangling_entity(self, tmp_path):
        with pytest.raises(DanglingReference):
            load_tables(tmp_path, triplets="A\tdirectedBy\tZZZ\n")

    def test_dangling_predicate(self, tmp_path):
        with pytest.raises(DanglingReference):
            load_tables(tmp_path, triplets="A\tnope\tB\n")

    def test_load_dir(self, tmp_path):
        (tmp_path / "triplets.tsv").write_text(TRIPLETS, encoding="utf-8")
        (tmp_path / "entities.tsv").write_text(ENTITIES, encoding="utf-8")
        (tmp_path / "predicates.tsv").write_text(PREDICATES, encoding="utf-8")
        kb = load_kb_dir(tmp_path)
        assert len(kb.triplets) == 3

    def test_idempotent_load(self, tmp_path):
        a, b = load_tables(tmp_path), load_tables(tmp_path)
        assert a.triplets == b.triplets
        assert a.sp_index == b.sp_index


def write_kb_tables(kb_dir: Path, triplets: str, entities: str, predicates: str) -> None:
    for name, text in (("triplets", triplets), ("entities", entities),
                       ("predicates", predicates)):
        (kb_dir / f"{name}.tsv").write_text(text, encoding="utf-8")


# Lines of a triplets.tsv over entities E0-E3 and predicates P0-P3 (P3 has no
# triplet): valid lines that repeat, comments, blanks, padded ids, dangling
# ids and a line with too few fields.
TRIPLET_LINES = st.lists(
    st.one_of(
        st.tuples(st.sampled_from(["E0", "E1", "E2", "E3"]), st.sampled_from(["P0", "P1", "P2"]),
                  st.sampled_from(["E0", "E1", "E2", "E3"])).map("\t".join),
        st.sampled_from(["# E0\tP0\tE1", "", "  ", " E1 \tP1\tE2\u00a0",
                         "E9\tP0\tE1", "E0\tP9\tE1", "E0\tP0"]),
    ),
    max_size=20,
)


# A field of a triplets.tsv line: ids, ids with "#" (leading or inside),
# and whitespace that str.split strips (Unicode spaces, \x1c-\x1f, CR).
LINE_FIELD = st.one_of(
    st.sampled_from(["A", "B", "directedBy"]),
    st.lists(st.sampled_from(["A", "B", "b#", "#c", "#", " ", "  ", "\u00a0", "\u2003",
                              "\x1c", "\x1f", "\r"]), max_size=3).map("".join),
)
# Lines of three fields, most of them, or of any other count.
TSV_LINES = st.lists(
    st.one_of(st.lists(LINE_FIELD, min_size=3, max_size=3),
              st.lists(LINE_FIELD, max_size=4)).map("\t".join),
    max_size=4,
)


class TestTripletRows:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(lines=TSV_LINES)
    def test_matches_field_by_field_parse(self, lines):
        """The one-split parse of a line gives the triplets, or the error
        message, of checking each tab-separated field on its own."""
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "triplets.tsv"
            path.write_text("".join(line + "\n" for line in lines), encoding="utf-8",
                            newline="")
            try:
                expected = triplet_rows_oracle(path)
            except MalformedLine as exc:
                with pytest.raises(MalformedLine) as info:
                    list(_triplet_rows(path))
                assert str(info.value) == str(exc)
                return
            assert list(_triplet_rows(path)) == expected


class TestUniqueObjectFlags:
    """``load_unique_object_flags`` equals the flags of the whole loaded KB."""

    def test_fixture_tables(self, tmp_path):
        write_kb_tables(tmp_path, TRIPLETS + "A\tstarring\tB\n# again\nA\tstarring\tB\n",
                        ENTITIES, PREDICATES + "starring\tstarring\nunused\tnever said\n")
        flags = load_unique_object_flags(tmp_path)
        assert flags == {"directedBy": False, "starring": True}
        assert flags == unique_object_flags_oracle(load_kb_dir(tmp_path))

    def test_random_worlds(self, tmp_path):
        rng = np.random.default_rng(7)
        for i in range(10):
            kb, _ = make_world(rng, n_paragraphs=1)
            write_kb_dir(kb, tmp_path / f"kb{i}")
            assert load_unique_object_flags(tmp_path / f"kb{i}") == unique_object_flags_oracle(kb)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(lines=TRIPLET_LINES)
    def test_generated_tables(self, lines):
        """Equal flags, or the same data error from both readers."""
        with tempfile.TemporaryDirectory() as tmp:
            write_kb_tables(Path(tmp), "".join(line + "\n" for line in lines),
                            "".join(f"E{i}\tname {i}\n" for i in range(4)),
                            "# predicates\n" + "".join(f"P{i}\tp{i}\n" for i in range(4)))
            try:
                expected = unique_object_flags_oracle(load_kb_dir(tmp))
            except DataError as exc:
                with pytest.raises(DataError) as info:
                    load_unique_object_flags(tmp)
                assert str(info.value) == str(exc)
                return
            assert load_unique_object_flags(tmp) == expected

    @pytest.mark.parametrize("table, text, error", [
        ("entities", ENTITIES + "A\tAgain\n", MalformedLine),
        ("predicates", PREDICATES + "directedBy\tagain\n", MalformedLine),
        ("predicates", "directedBy\t|\n", MalformedLine),
        ("entities", "A\tWar Horse\n", DanglingReference),
        ("predicates", "other\tother\n", DanglingReference),
    ])
    def test_alias_tables_checked(self, tmp_path, table, text, error):
        tables = {"triplets": TRIPLETS, "entities": ENTITIES, "predicates": PREDICATES,
                  table: text}
        write_kb_tables(tmp_path, **tables)
        for load in (load_kb_dir, load_unique_object_flags):
            with pytest.raises(error):
                load(tmp_path)


class TestQueries:
    def test_objects_exact_set(self, tmp_path):
        kb = load_tables(tmp_path)
        assert objects_for(kb, "C", "directedBy") == frozenset({"B", "D"})

    def test_unknown_pair_empty(self, tmp_path):
        kb = load_tables(tmp_path)
        assert objects_for(kb, "D", "directedBy") == frozenset()

    def test_deterministic_single_object(self, tmp_path):
        kb = load_tables(tmp_path)
        assert is_deterministic(kb, "A", "directedBy")

    def test_two_objects_not_deterministic(self, tmp_path):
        kb = load_tables(tmp_path)
        assert not is_deterministic(kb, "C", "directedBy")

    def test_zero_objects_not_deterministic(self, tmp_path):
        # No ground truth in the KB means nothing can be masked.
        kb = load_tables(tmp_path)
        assert not is_deterministic(kb, "D", "directedBy")

    def test_predicates_between_sorted(self):
        kb = build_kb(
            [Triplet("A", "p2", "B"), Triplet("A", "p1", "B")],
            {"A": ("a",), "B": ("b",)},
            {"p1": ("x",), "p2": ("y",)},
        )
        assert predicates_between(kb, "A", "B") == ("p1", "p2")
        assert predicates_between(kb, "B", "A") == ()


class TestAgainstLinearScan:
    """Index lookups must agree with naive scans over the triplet set."""

    def test_random_worlds(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            kb, _ = make_world(rng, n_paragraphs=1)
            subjects = {t.subject for t in kb.triplets}
            predicates = {t.predicate for t in kb.triplets}
            for s in subjects:
                for p in predicates:
                    scan = {t.object for t in kb.triplets
                            if t.subject == s and t.predicate == p}
                    assert objects_for(kb, s, p) == frozenset(scan)
                    assert is_deterministic(kb, s, p) == (len(scan) == 1)
            for s in subjects:
                for o in {t.object for t in kb.triplets}:
                    scan = sorted(
                        t.predicate for t in kb.triplets
                        if t.subject == s and t.object == o
                    )
                    assert list(predicates_between(kb, s, o)) == scan


class TestLazyIndexes:
    """The two indexes are built on first read, equal to scans of the triplets."""

    def test_load_and_write_build_no_index(self, tmp_path):
        kb = load_tables(tmp_path)
        write_kb_dir(kb, tmp_path / "kb")
        reloaded = load_kb_dir(tmp_path / "kb")
        write_kb_dir(reloaded, tmp_path / "again")
        for loaded in (kb, reloaded):
            assert not {"sp_index", "so_index"} & loaded.__dict__.keys()
        # A KB compares by identity: no field-wise walk of its tables.
        assert kb == kb and kb != reloaded

    def test_indexes_equal_the_oracles(self, tmp_path):
        rng = np.random.default_rng(11)
        kbs = [load_tables(tmp_path), *(make_world(rng, n_paragraphs=1)[0] for _ in range(10))]
        for kb in kbs:
            assert kb.so_index == so_index_oracle(kb)
            assert kb.sp_index == sp_index_oracle(kb)
            assert kb.so_index is kb.so_index and kb.sp_index is kb.sp_index

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(rows=st.lists(st.tuples(*[st.sampled_from(["", "A", "B", "a", "AB"])] * 3),
                         max_size=12))
    def test_triplets_sort_by_subject_predicate_object(self, rows):
        triplets = [Triplet(*row) for row in rows]
        assert sorted(triplets) == sorted(triplets,
                                          key=attrgetter("subject", "predicate", "object"))
        assert sorted(triplets) == sorted(rows)
