"""Tests for the shared library and its keyword matching."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.files.library import SharedFile, SharedLibrary
from repro.files.payload import Blob


def make_file(name, size=1000, key=None):
    blob = Blob(content_key=key or name, extension=name.rsplit(".", 1)[-1],
                size=size)
    return SharedFile.make(name=name, size=size,
                           extension=blob.extension, blob=blob)


@pytest.fixture()
def library():
    lib = SharedLibrary()
    lib.add(make_file("madonna_angel.mp3"))
    lib.add(make_file("madonna_crazy_remix.mp3"))
    lib.add(make_file("photoshop_crack.zip"))
    return lib


class TestAddRemove:
    def test_len(self, library):
        assert len(library) == 3

    def test_add_idempotent(self, library):
        shared = library.files()[0]
        library.add(shared)
        assert len(library) == 3

    def test_remove(self, library):
        target = library.files()[0]
        library.remove(target.file_id)
        assert len(library) == 2
        assert library.match("madonna angel") == []

    def test_remove_unknown_is_noop(self, library):
        library.remove(10**9)
        assert len(library) == 3

    def test_total_bytes(self, library):
        assert library.total_bytes() == 3000

    def test_version_counts_real_changes(self, library):
        assert library.version == 3
        shared = library.files()[0]
        library.add(shared)  # already shared: no change
        assert library.version == 3
        library.remove(shared.file_id)
        assert library.version == 4
        library.remove(shared.file_id)  # already gone: no change
        assert library.version == 4
        library.add(shared)
        assert library.version == 5


class TestMatching:
    def test_single_token(self, library):
        assert len(library.match("madonna")) == 2

    def test_conjunctive(self, library):
        matches = library.match("madonna angel")
        assert len(matches) == 1
        assert matches[0].name == "madonna_angel.mp3"

    def test_no_partial_token_match(self, library):
        assert library.match("madon") == []

    def test_case_insensitive(self, library):
        assert len(library.match("MADONNA Angel")) == 1

    def test_unmatched_token_kills_query(self, library):
        assert library.match("madonna zebra") == []

    def test_empty_query_matches_nothing(self, library):
        assert library.match("") == []
        assert library.match("  _ ") == []

    def test_limit(self, library):
        assert len(library.match("madonna", limit=1)) == 1

    def test_extension_is_a_token(self, library):
        assert len(library.match("zip")) == 1


class TestLookups:
    def test_by_urn(self, library):
        target = library.files()[1]
        assert library.by_urn(target.sha1_urn) is target
        assert library.by_urn("urn:sha1:NOPE") is None

    def test_by_md5(self, library):
        target = library.files()[2]
        assert library.by_md5(target.blob.md5_hex()) is target
        assert library.by_md5("0" * 32) is None

    def test_all_tokens_cover_names(self, library):
        tokens = set(library.all_tokens())
        assert {"madonna", "angel", "crazy", "photoshop"} <= tokens

    def test_files_sorted_by_id(self, library):
        ids = [shared.file_id for shared in library.files()]
        assert ids == sorted(ids)


@given(st.lists(st.sampled_from(
    ["alpha", "beta", "gamma", "delta"]), min_size=1, max_size=4,
    unique=True))
@settings(max_examples=50, deadline=None)
def test_matching_invariant_every_token_present(tokens):
    """Property: a file matches a query iff it contains every query token."""
    lib = SharedLibrary()
    shared = make_file("_".join(tokens) + ".exe")
    lib.add(shared)
    assert lib.match(" ".join(tokens)) == [shared]
    assert lib.match(" ".join(tokens + ["omega"])) == []
