"""Direct-drive tests of the LogTM-SE machine."""

import pytest

from repro.common.config import HTMConfig, SignatureConfig
from repro.common.errors import TransactionError
from repro.coherence.protocol import MemorySystem
from repro.htm.base import ConflictKind
from repro.htm.logtm_se import LogTMSE
from tests.conftest import small_system

B = 0x5000


def build(perfect=False, bits=2048, k=4):
    sig = SignatureConfig(perfect=True) if perfect else \
        SignatureConfig(bits=bits, num_hashes=k)
    cfg = HTMConfig(signature=sig)
    return LogTMSE(MemorySystem(small_system()), cfg, signature=sig)


class TestNaming:
    def test_perfect_name(self):
        assert build(perfect=True).name == "LogTM-SE_Perf"

    def test_hash_count_in_name(self):
        assert build(k=2).name == "LogTM-SE_2xH3"
        assert build(k=4).name == "LogTM-SE_4xH3"


class TestBasic:
    def test_read_write_commit(self):
        htm = build(perfect=True)
        htm.begin(0, 0)
        assert htm.read(0, 0, B).granted
        assert htm.write(0, 0, B + 1).granted
        out = htm.commit(0, 0)
        assert out.used_fast_release  # signature clear is O(1)
        assert htm.stats.commits == 1

    def test_double_begin_rejected(self):
        htm = build()
        htm.begin(0, 0)
        with pytest.raises(TransactionError):
            htm.begin(0, 0)

    def test_only_first_write_logs(self):
        htm = build(perfect=True)
        htm.begin(0, 0)
        first = htm.write(0, 0, B)
        second = htm.write(0, 0, B)
        assert second.latency < first.latency


class TestConflicts:
    def test_true_write_write_conflict(self):
        htm = build(perfect=True)
        htm.begin(0, 0)
        htm.write(0, 0, B)
        htm.begin(1, 1)
        out = htm.write(1, 1, B)
        assert not out.granted
        assert out.conflict.kind is ConflictKind.WRITER
        assert out.conflict.hints == (0,)
        assert not out.conflict.false_positive

    def test_true_read_write_conflict(self):
        htm = build(perfect=True)
        htm.begin(0, 0)
        htm.read(0, 0, B)
        htm.begin(1, 1)
        out = htm.write(1, 1, B)
        assert not out.granted
        assert out.conflict.kind is ConflictKind.READERS

    def test_readers_do_not_conflict(self):
        htm = build(perfect=True)
        htm.begin(0, 0)
        htm.read(0, 0, B)
        htm.begin(1, 1)
        assert htm.read(1, 1, B).granted

    def test_nack_means_no_data_movement(self):
        htm = build(perfect=True)
        htm.begin(0, 0)
        htm.write(0, 0, B)
        htm.begin(1, 1)
        htm.write(1, 1, B)  # NACKed
        assert htm.mem.holders(B) == {0}  # block never moved

    def test_conflict_clears_after_commit(self):
        htm = build(perfect=True)
        htm.begin(0, 0)
        htm.write(0, 0, B)
        htm.begin(1, 1)
        assert not htm.write(1, 1, B).granted
        htm.commit(0, 0)
        assert htm.write(1, 1, B).granted

    def test_abort_undoes_and_clears(self):
        htm = build(perfect=True)
        htm.begin(0, 0)
        htm.write(0, 0, B)
        out = htm.abort(0, 0)
        assert out.latency > 0
        assert htm.stats.aborts == 1
        htm.begin(1, 1)
        assert htm.write(1, 1, B).granted

    def test_strong_atomicity_checks(self):
        htm = build(perfect=True)
        htm.begin(0, 0)
        htm.write(0, 0, B)
        assert not htm.nontxn_read(1, 1, B).granted
        assert not htm.nontxn_write(1, 1, B).granted
        assert htm.nontxn_read(1, 1, B + 1).granted


class TestFalsePositives:
    def test_perfect_never_false_positive(self):
        htm = build(perfect=True)
        htm.begin(0, 0)
        for i in range(200):
            htm.read(0, 0, B + i)
            htm.write(0, 0, B + 4096 + i)
        htm.begin(1, 1)
        for i in range(200):
            assert htm.read(1, 1, B + 8192 + i).granted
        assert htm.stats.false_positive_conflicts == 0

    def test_small_saturated_signature_false_positives(self):
        # A tiny 64-bit signature saturates quickly: disjoint sets
        # must eventually collide.
        htm = build(bits=64, k=2)
        htm.begin(0, 0)
        for i in range(60):
            htm.write(0, 0, B + i)
        htm.begin(1, 1)
        conflicts = 0
        for i in range(60):
            out = htm.read(1, 1, B + 10_000 + i * 7)
            conflicts += 0 if out.granted else 1
        assert conflicts > 0
        assert htm.stats.false_positive_conflicts > 0

    def test_false_positive_flagged_as_such(self):
        # Scattered (not sequential) addresses: H3 is linear over
        # GF(2), so dense sequential keys occupy a low-dimensional
        # coset and can systematically miss each other.
        htm = build(bits=64, k=2)
        htm.begin(0, 0)
        for i in range(64):
            htm.write(0, 0, B + i * 977 + 13)
        htm.begin(1, 1)
        for i in range(400):
            out = htm.read(1, 1, B + 1_000_003 + i * 1_009)
            if not out.granted:
                assert out.conflict.false_positive
                break
        else:  # pragma: no cover
            raise AssertionError("saturated signature never matched")


class TestInstrumentation:
    def test_set_sizes(self):
        htm = build(perfect=True)
        htm.begin(0, 0)
        htm.read(0, 0, B)
        htm.read(0, 0, B + 1)
        htm.write(0, 0, B + 2)
        assert htm.read_set_size(0) == 2
        assert htm.write_set_size(0) == 1
        assert htm.active_tids() == [0]

    def test_signature_fill_reported(self):
        htm = build(k=4)
        htm.begin(0, 0)
        for i in range(50):
            htm.read(0, 0, B + i)
        read_fill, write_fill = htm.signature_fill(0)
        assert read_fill > 0.0
        assert write_fill == 0.0


class TestSummary:
    """The machine-wide summary that answers clear misses."""

    def _loaded(self, **kw):
        htm = build(**kw)
        htm.begin(0, 0)
        htm.read(0, 0, B)
        htm.write(0, 0, B + 1)
        htm.begin(1, 1)
        htm.read(1, 1, B + 2)
        return htm

    @pytest.mark.parametrize("kw", [{"k": 2}, {"k": 4}, {"perfect": True}])
    def test_invariants_hold(self, kw):
        htm = self._loaded(**kw)
        report = htm.check_invariants()
        assert "signature_summary" in report["checks"]
        htm.commit(0, 0)
        htm.abort(1, 1)
        htm.check_invariants()

    @pytest.mark.parametrize("k", [2, 4])
    def test_corrupted_bloom_summary_caught(self, k):
        htm = self._loaded(k=k)
        htm._summary.write = 0
        with pytest.raises(TransactionError, match="summary"):
            htm.check_invariants()

    def test_corrupted_exact_summary_caught(self):
        htm = self._loaded(perfect=True)
        htm._summary.readers[B + 3] = 1
        with pytest.raises(TransactionError, match="recount"):
            htm.check_invariants()

    def test_stale_exact_count_caught(self):
        htm = self._loaded(perfect=True)
        htm._summary.writers[B + 1] += 1
        with pytest.raises(TransactionError, match="recount"):
            htm.check_invariants()

    def test_commit_empties_summary(self):
        for kw in ({"k": 2}, {"perfect": True}):
            htm = self._loaded(**kw)
            htm.commit(0, 0)
            htm.commit(1, 1)
            summary = htm._summary
            if kw.get("perfect"):
                assert summary.readers == {} and summary.writers == {}
            else:
                assert summary.read == 0 and summary.write == 0

    def test_clear_miss_probes_no_signature(self, monkeypatch):
        htm = self._loaded(k=4)
        probes = []
        for txn in htm._txns.values():
            for sig in (txn.read_sig, txn.write_sig):
                monkeypatch.setattr(
                    sig, "test", lambda b, t=sig.test: probes.append(b)
                    or t(b))
        assert htm._check(2, B + 0x9999, is_write=False) is None
        assert probes == []
        # A real conflict still walks and reports the writer.
        conflict = htm._check(2, B + 1, is_write=False)
        assert conflict.kind is ConflictKind.WRITER
        assert conflict.hints == (0,)
        assert probes
