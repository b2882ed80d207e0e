"""The benchmark's simulated user: answers from ground truth, zero think time.

It answers exactly like :class:`repro.core.GroundTruthOracle` (retain
when the current value is already true, confirm when the suggestion is
true, otherwise reject with the true value as the correction), but
reads plain truth rows rather than a ``Database``, and stamps the
clock on entry and on return so ``run.py`` can measure each question's
wait with the oracle's own time excluded.
"""

from __future__ import annotations

from time import perf_counter

from repro.repair.feedback import UserFeedback


class TimedTruthOracle:
    """Ground-truth oracle over ``truth[tid][position]``."""

    def __init__(self, truth, attributes) -> None:
        self.truth = truth
        self.position = {attr: i for i, attr in enumerate(attributes)}
        self.asked: list[float] = []  # clock when each question arrived
        self.answered: list[float] = []  # clock when each answer returned

    def review(self, update, current_value) -> UserFeedback:
        asked = perf_counter()
        true_value = self.truth[update.tid][self.position[update.attribute]]
        if current_value == true_value:
            answer = UserFeedback.retain()
        elif update.value == true_value:
            answer = UserFeedback.confirm()
        else:
            answer = UserFeedback.reject(correction=true_value)
        self.asked.append(asked)
        self.answered.append(perf_counter())
        return answer

    def waits(self, run_start: float) -> list[float]:
        """Seconds each question waited, from the previous answer (or ``run_start``)."""
        previous = [run_start] + self.answered[:-1]
        return [asked - prev for asked, prev in zip(self.asked, previous)]
