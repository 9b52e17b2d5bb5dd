"""Branch prediction structures used by the out-of-order core.

These follow the structures TFsim models (paper 3.2.4): a YAGS direction
predictor (Eden & Mudge [11]), a cascaded indirect branch predictor
(Driesen & Holzle [9]) and a return address stack (Jourdan et al. [14]).

They are genuine table-based predictors -- two-bit counters, tagged
exception caches, global history -- not statistical stand-ins, so
predictor warm-up, aliasing and context-switch pollution all behave the
way the real structures do.  The out-of-order core samples branches from
the workload's deterministic outcome stream through these structures to
obtain its misprediction rate.
"""

from __future__ import annotations


class _CounterTable:
    """A table of saturating two-bit counters, weakly-taken initialised."""

    def __init__(self, entries: int) -> None:
        if entries <= 0 or entries & (entries - 1):
            raise ValueError("table entries must be a positive power of two")
        self.entries = entries
        self._counters: dict[int, int] = {}

    def index(self, value: int) -> int:
        """Fold a value into a table index."""
        return value & (self.entries - 1)

    def read(self, index: int) -> int:
        """Counter value (0..3); unseen entries are weakly taken (2)."""
        return self._counters.get(index, 2)

    def update(self, index: int, taken: bool) -> None:
        """Saturating increment/decrement toward the outcome."""
        value = self.read(index)
        if taken:
            value = min(3, value + 1)
        else:
            value = max(0, value - 1)
        self._counters[index] = value

    def clear(self) -> None:
        """Reset to the initial (weakly taken) state."""
        self._counters.clear()


class YagsPredictor:
    """YAGS: a choice PHT plus tagged taken/not-taken exception caches.

    The choice table records the bias of each branch; the direction caches
    record only the exceptions to that bias, tagged to reduce aliasing.
    This is the 1 KB-class configuration TFsim models.
    """

    TAG_BITS = 6
    _TAG_MASK = (1 << TAG_BITS) - 1

    def __init__(self, choice_entries: int = 4096, cache_entries: int = 1024) -> None:
        self.choice = _CounterTable(choice_entries)
        self.taken_cache = _CounterTable(cache_entries)
        self.not_taken_cache = _CounterTable(cache_entries)
        self._taken_tags: dict[int, int] = {}
        self._not_taken_tags: dict[int, int] = {}
        self.history = 0
        self.predictions = 0
        self.mispredictions = 0

    def _tag(self, pc: int) -> int:
        return (pc >> 2) & self._TAG_MASK

    def _cache_index(self, pc: int) -> int:
        return self.taken_cache.index((pc >> 2) ^ self.history)

    def predict(self, pc: int) -> bool:
        """Predict the direction of the branch at ``pc``."""
        choice_taken = self.choice.read(self.choice.index(pc >> 2)) >= 2
        index = self._cache_index(pc)
        tag = self._tag(pc)
        if choice_taken:
            # Bias says taken: consult the not-taken exception cache.
            if self._not_taken_tags.get(index) == tag:
                return self.not_taken_cache.read(index) >= 2
            return True
        if self._taken_tags.get(index) == tag:
            return self.taken_cache.read(index) >= 2
        return False

    def update(self, pc: int, taken: bool) -> bool:
        """Record the outcome; returns True when the prediction was wrong.

        One pass: the choice counter, cache index and tag are read once
        and serve both the prediction (identical to :meth:`predict`) and
        the training.  Every dict receives exactly the key writes a
        predict-then-train walk would make, so key insertion order --
        which ``Checkpoint.digest`` hashes -- is unchanged.
        """
        key = pc >> 2
        choice_counters = self.choice._counters
        choice_index = key & (self.choice.entries - 1)
        choice = choice_counters.get(choice_index, 2)
        choice_taken = choice >= 2
        index = (key ^ self.history) & (self.taken_cache.entries - 1)
        tag = key & self._TAG_MASK
        # The exception cache that can contradict this bias.
        if choice_taken:
            tags, counters = self._not_taken_tags, self.not_taken_cache._counters
        else:
            tags, counters = self._taken_tags, self.taken_cache._counters
        counter = counters.get(index, 2)
        tag_hit = tags.get(index) == tag
        predicted = counter >= 2 if tag_hit else choice_taken
        self.predictions += 1
        mispredicted = predicted != taken
        if mispredicted:
            self.mispredictions += 1

        # The exception caches learn outcomes that contradict the bias;
        # an outcome that agrees only refreshes a matching entry.
        if choice_taken != taken:
            tags[index] = tag
            tag_hit = True
        if taken:
            if tag_hit:
                counters[index] = counter + 1 if counter < 3 else 3
            choice_counters[choice_index] = choice + 1 if choice < 3 else 3
        else:
            if tag_hit:
                counters[index] = counter - 1 if counter > 0 else 0
            choice_counters[choice_index] = choice - 1 if choice > 0 else 0
        # 12-bit global history, speculatively updated with the outcome.
        self.history = ((self.history << 1) | taken) & 0xFFF
        return mispredicted

    @property
    def misprediction_rate(self) -> float:
        """Observed misprediction rate since construction/clear."""
        if self.predictions == 0:
            return 0.0
        return self.mispredictions / self.predictions


class CascadedIndirectPredictor:
    """A two-stage cascaded indirect-branch target predictor.

    First stage: a simple per-PC last-target table.  Second stage: a
    history-hashed tagged table that captures correlated targets; only
    branches that miss in the first stage are promoted ("cascaded") into
    the second.
    """

    def __init__(self, entries: int = 64) -> None:
        if entries <= 0:
            raise ValueError("entries must be positive")
        self.entries = entries
        self._first: dict[int, int] = {}
        self._second: dict[int, int] = {}
        self._order: list[int] = []  # FIFO replacement for the second stage
        self.history = 0
        self.predictions = 0
        self.mispredictions = 0

    def _first_index(self, pc: int) -> int:
        return (pc >> 2) % self.entries

    def _second_index(self, pc: int) -> int:
        return ((pc >> 2) ^ (self.history * 7)) % (self.entries * 4)

    def predict(self, pc: int) -> int:
        """Predict the target of the indirect branch at ``pc`` (0 = none)."""
        second = self._second.get(self._second_index(pc))
        if second is not None:
            return second
        return self._first.get(self._first_index(pc), 0)

    def update(self, pc: int, target: int) -> bool:
        """Record the resolved target; returns True on a misprediction."""
        predicted = self.predict(pc)
        self.predictions += 1
        mispredicted = predicted != target
        if mispredicted:
            self.mispredictions += 1
            first_index = self._first_index(pc)
            if self._first.get(first_index) is not None and self._first[first_index] != target:
                # First stage failed: promote to the history-hashed stage.
                second_index = self._second_index(pc)
                if second_index not in self._second and len(self._order) >= self.entries * 4:
                    self._second.pop(self._order.pop(0), None)
                if second_index not in self._second:
                    self._order.append(second_index)
                self._second[second_index] = target
            self._first[first_index] = target
        self.history = ((self.history << 2) ^ (target & 0xF)) & 0xFFF
        return mispredicted


class ReturnAddressStack:
    """A fixed-depth return-address stack.

    Calls push; returns pop and predict the popped address.  Overflow
    wraps (oldest entry lost), underflow mispredicts -- both behaviours of
    the hardware structure.
    """

    def __init__(self, entries: int = 64) -> None:
        if entries <= 0:
            raise ValueError("entries must be positive")
        self.entries = entries
        self._stack: list[int] = []
        self.predictions = 0
        self.mispredictions = 0

    def push(self, return_address: int) -> None:
        """Record a call's return address."""
        if len(self._stack) >= self.entries:
            self._stack.pop(0)
        self._stack.append(return_address)

    def predict_return(self, actual: int) -> bool:
        """Pop a prediction for a return; returns True on a mispredict."""
        self.predictions += 1
        predicted = self._stack.pop() if self._stack else 0
        mispredicted = predicted != actual
        if mispredicted:
            self.mispredictions += 1
        return mispredicted

    @property
    def depth(self) -> int:
        """Current number of stacked return addresses."""
        return len(self._stack)
