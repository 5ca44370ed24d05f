"""External cloud-service index.

"We consider a cloud service as a selectively accessed index because a
user is often charged on a pay-per-use basis. Hence we would like to
reduce accesses to such cloud service as much as possible." (Section 1)

The LOG experiment's geo service is the canonical instance: a single
remote node, ``T = 0.8 ms`` base delay per lookup, plus an injected
extra delay of 0-5 ms (the x-axis of Figure 11(a)).
"""

from __future__ import annotations

from typing import Any, Callable, List, Union

from repro.indices.base import IndexService
from repro.mapreduce.api import stable_hash


class CloudServiceIndex(IndexService):
    """A pay-per-use service on a single external node.

    ``backend`` is either a mapping or a function of the key. The
    service exposes no partition scheme (there is nothing to
    co-partition with), so the index-locality strategy does not apply --
    matching the paper's note that index locality "does not apply to LOG
    because the cloud service is located on a single machine".
    """

    BASE_DELAY = 0.8e-3  # the paper's measured per-lookup delay

    def __init__(
        self,
        name: str,
        backend: Union[dict, Callable[[Any], Any]],
        extra_delay: float = 0.0,
        price_per_lookup: float = 0.0,
    ):
        super().__init__(name, service_time=self.BASE_DELAY + extra_delay)
        self._backend = backend
        self.extra_delay = extra_delay
        self.price_per_lookup = price_per_lookup
        self.total_charged = 0.0

    def _lookup(self, key: Any) -> List[Any]:
        self.total_charged += self.price_per_lookup
        if callable(self._backend):
            result = self._backend(key)
        else:
            result = self._backend.get(key)
        if result is None:
            return []
        if isinstance(result, list):
            return list(result)
        return [result]

    def set_extra_delay(self, extra_delay: float) -> None:
        """Adjust the injected delay (the Figure 11(a) sweep knob)."""
        self.extra_delay = extra_delay
        self._service_time = self.BASE_DELAY + extra_delay

    def fingerprint(self) -> int:
        if callable(self._backend):
            return stable_hash(self.name)
        return len(self._backend)
