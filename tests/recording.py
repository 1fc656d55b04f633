"""An engine that keeps every message it checks, for comparing schedules
message by message."""

from all_to_all import expand
from cliquemat.engine import CliqueEngine


class RecordingEngine(CliqueEngine):
    """An engine that also keeps every checked message as a (round, src,
    dst, nbits) row, all-to-all rounds expanded into their messages, its
    round counted from the start of the run.  Every schedule here is
    checked once and charged right after, so a check's rounds start where
    the ledger stands."""

    def __init__(self, cfg):
        super().__init__(cfg)
        self.rows = []

    def check_exchange(self, rounds, rnd, src, dst, nbits, all_to_all=()):
        traffic = super().check_exchange(rounds, rnd, src, dst, nbits, all_to_all)
        start = self.ledger.rounds
        rnd, src, dst, nbits = (a.tolist() for a in expand(self.n, rnd, src, dst, nbits, all_to_all))
        self.rows += zip([r + start for r in rnd], src, dst, nbits)
        return traffic
