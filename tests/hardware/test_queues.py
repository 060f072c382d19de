"""Unit tests for the config queue (the one Fig. 4 queue that is an object)."""

from repro.hardware.queues import ConfigQueue


class TestConfigQueue:
    def test_counts_words(self):
        q = ConfigQueue()
        assert q.send("weights", [1.0, 2.0, 3.0]) == 3
        assert q.send("tree", iter([0.5] * 5)) == 5
        assert q.words_transferred == 8

    def test_payload_log(self):
        q = ConfigQueue()
        q.send("linear", [0.1, 0.2])
        assert q.sent == [("linear", [0.1, 0.2])]
