"""Unit tests for the (Sum, TID) metastate and Table 2 transitions."""

import pytest

from repro.common.errors import BookkeepingError, MetastateError, TokenError
from repro.core.metastate import (
    META_ZERO,
    AccessVerdict,
    AcquireResult,
    Meta,
    acquire_read,
    acquire_write,
    release,
    transition_table,
)

T = 8  # tokens per block in these tests


class TestMeta:
    def test_zero_state(self):
        assert META_ZERO.total == 0
        assert META_ZERO.tid is None

    def test_negative_sum_rejected(self):
        with pytest.raises(MetastateError):
            Meta(-1, None)

    def test_zero_with_tid_rejected(self):
        with pytest.raises(MetastateError):
            Meta(0, 3)

    def test_str_formats(self):
        assert str(Meta(3, None)) == "(3, -)"
        assert str(Meta(1, 5)) == "(1, 5)"

    def test_equality(self):
        assert Meta(1, 2) == Meta(1, 2)
        assert Meta(1, 2) != Meta(1, 3)
        assert Meta(2) == Meta(2, None)
        assert Meta(1, 2) != (1, 2)

    def test_hash_follows_equality(self):
        # Meta values sit in dicts (TokenTM's pending shards) and sets.
        assert hash(Meta(3, None)) == hash(Meta(3, None))
        pending = {(0, 0x40): Meta(2, None)}
        pending[(0, 0x40)] = Meta(2, None)
        assert pending == {(0, 0x40): Meta(2, None)}
        assert len({Meta(1, 4), Meta(1, 4), Meta(1, 5), META_ZERO}) == 3

    def test_repr_names_fields(self):
        assert repr(Meta(1, 4)) == "Meta(total=1, tid=4)"
        assert repr(META_ZERO) == "Meta(total=0, tid=None)"

    def test_error_cases_build_nothing(self):
        for args in ((-1,), (-1, 2), (0, 3), (0, 0)):
            with pytest.raises(MetastateError):
                Meta(*args)


class TestAcquireResult:
    def test_granted_for_each_verdict(self):
        for verdict in AccessVerdict:
            res = AcquireResult(verdict, META_ZERO)
            assert res.granted == (verdict is AccessVerdict.GRANTED)

    def test_granted_on_transition_outcomes(self):
        assert acquire_read(META_ZERO, 4, T).granted
        assert not acquire_read(Meta(T, 7), 4, T).granted
        assert acquire_write(META_ZERO, 4, T).granted
        assert not acquire_write(Meta(3, None), 4, T).granted

    def test_defaults(self):
        res = AcquireResult(AccessVerdict.GRANTED, Meta(1, 4))
        assert res.acquired == 0
        assert res.owner_hint is None

    def test_equality_and_hash(self):
        a = acquire_read(Meta(T, 7), 4, T)
        b = AcquireResult(AccessVerdict.WRITER_CONFLICT, Meta(T, 7),
                          owner_hint=7)
        assert a == b
        assert hash(a) == hash(b)
        assert a != AcquireResult(AccessVerdict.WRITER_CONFLICT,
                                  Meta(T, 7), owner_hint=8)
        assert a != AcquireResult(AccessVerdict.READER_CONFLICT,
                                  Meta(T, 7), owner_hint=7)
        assert acquire_read(META_ZERO, 4, T) == AcquireResult(
            AccessVerdict.GRANTED, Meta(1, 4), acquired=1)

    def test_repr_names_fields(self):
        text = repr(acquire_write(META_ZERO, 4, T))
        assert text.startswith("AcquireResult(verdict=")
        assert "acquired=8" in text and "owner_hint=None" in text


class TestAcquireRead:
    def test_first_load_takes_one_token(self):
        res = acquire_read(META_ZERO, 4, T)
        assert res.granted
        assert res.acquired == 1
        assert res.meta == Meta(1, 4)

    def test_reload_own_single_token_is_free(self):
        res = acquire_read(Meta(1, 4), 4, T)
        assert res.granted
        assert res.acquired == 0
        assert res.meta == Meta(1, 4)

    def test_load_of_own_written_block_is_free(self):
        res = acquire_read(Meta(T, 4), 4, T)
        assert res.granted
        assert res.acquired == 0

    def test_second_reader_anonymizes_count(self):
        res = acquire_read(Meta(1, 4), 5, T)
        assert res.granted
        assert res.acquired == 1
        assert res.meta == Meta(2, None)

    def test_reader_joins_anonymous_count(self):
        res = acquire_read(Meta(3, None), 9, T)
        assert res.granted
        assert res.meta == Meta(4, None)

    def test_conflict_with_foreign_writer(self):
        res = acquire_read(Meta(T, 7), 4, T)
        assert not res.granted
        assert res.verdict is AccessVerdict.WRITER_CONFLICT
        assert res.owner_hint == 7
        assert res.meta == Meta(T, 7)  # unchanged

    def test_reader_count_cannot_reach_writer_territory(self):
        with pytest.raises(TokenError):
            acquire_read(Meta(T - 1, None), 4, T)


class TestAcquireWrite:
    def test_first_store_takes_all_tokens(self):
        res = acquire_write(META_ZERO, 4, T)
        assert res.granted
        assert res.acquired == T
        assert res.meta == Meta(T, 4)

    def test_restore_own_block_is_free(self):
        res = acquire_write(Meta(T, 4), 4, T)
        assert res.granted
        assert res.acquired == 0

    def test_upgrade_from_own_read_token(self):
        res = acquire_write(Meta(1, 4), 4, T)
        assert res.granted
        assert res.acquired == T - 1
        assert res.meta == Meta(T, 4)

    def test_conflict_with_foreign_writer(self):
        res = acquire_write(Meta(T, 7), 4, T)
        assert not res.granted
        assert res.verdict is AccessVerdict.WRITER_CONFLICT
        assert res.owner_hint == 7

    def test_conflict_with_single_identified_reader(self):
        res = acquire_write(Meta(1, 7), 4, T)
        assert not res.granted
        assert res.verdict is AccessVerdict.READER_CONFLICT
        assert res.owner_hint == 7

    def test_conflict_with_anonymous_readers_has_no_hint(self):
        res = acquire_write(Meta(3, None), 4, T)
        assert not res.granted
        assert res.verdict is AccessVerdict.READER_CONFLICT
        assert res.owner_hint is None


class TestRelease:
    def test_release_identified_single_token(self):
        assert release(Meta(1, 4), 4, 1, T) == META_ZERO

    def test_release_from_anonymous_count(self):
        assert release(Meta(3, None), 4, 1, T) == Meta(2, None)

    def test_release_anonymous_to_zero(self):
        assert release(Meta(1, None), 4, 1, T) == META_ZERO

    def test_release_all_writer_tokens(self):
        assert release(Meta(T, 4), 4, T, T) == META_ZERO

    def test_partial_writer_release_anonymizes(self):
        # A read record (1 token) of an upgraded block releases first.
        assert release(Meta(T, 4), 4, 1, T) == Meta(T - 1, None)

    def test_over_release_raises(self):
        with pytest.raises(BookkeepingError):
            release(Meta(1, None), 4, 2, T)

    def test_release_is_fungible_across_labels(self):
        # Identity labels are conflict hints, not ownership: after
        # anonymous-pool releases scramble labels, a thread may
        # legitimately release a token labelled with another TID.
        assert release(Meta(1, 7), 4, 1, T) == META_ZERO

    def test_zero_count_rejected(self):
        with pytest.raises(TokenError):
            release(Meta(1, 4), 4, 0, T)


class TestTransitionTable:
    """The generated Table 2 must match the paper's rows."""

    def test_rows_match_paper(self):
        rows = transition_table(T, x=0, y=1)
        expected = [
            ("Transaction Load", "(0, -)", "(1, 0)"),
            ("Transaction Store", "(0, -)", "(T, 0)"),
            ("Release one Token", "(1, 0)", "(0, -)"),
            ("Release one Token", "(3, -)", "(2, -)"),
            ("Release T tokens", "(T, 0)", "(0, -)"),
            ("Conflicting Load", "(T, 1)", "(T, 1)"),
            ("Conflicting Store", "(3, -)", "(3, -)"),
            ("Conflicting Store", "(T, 1)", "(T, 1)"),
        ]
        assert list(rows) == expected
