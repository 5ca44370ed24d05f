"""Inverted text index (term -> postings).

One of the paper's motivating index types for text analysis
(Section 1, citing Zobel et al. [23]).
"""

from __future__ import annotations

import re
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.indices.base import IndexService

_TOKEN = re.compile(r"[A-Za-z0-9_']+")


def tokenize(text: str) -> List[str]:
    """Lowercased word tokens of ``text``."""
    return [t.lower() for t in _TOKEN.findall(text)]


class InvertedIndex(IndexService):
    """Maps terms to postings ``(doc_id, term_frequency)``.

    Lookup key: a term. Result: the postings list, most-frequent first.
    """

    supports_batch = True

    def __init__(self, name: str, service_time: Optional[float] = None):
        super().__init__(name, service_time)
        self._postings: Dict[str, Dict[Any, int]] = {}
        self._num_docs = 0

    def add_document(self, doc_id: Any, text: str) -> None:
        self._num_docs += 1
        for term in tokenize(text):
            bucket = self._postings.setdefault(term, {})
            bucket[doc_id] = bucket.get(doc_id, 0) + 1

    def load(self, docs: Iterable[Tuple[Any, str]]) -> "InvertedIndex":
        for doc_id, text in docs:
            self.add_document(doc_id, text)
        return self

    def _lookup(self, key: Any) -> List[Any]:
        postings = self._postings.get(str(key).lower())
        if not postings:
            return []
        ranked = sorted(postings.items(), key=lambda kv: (-kv[1], str(kv[0])))
        return [(doc_id, tf) for doc_id, tf in ranked]

    def lookup_batch(self, keys: List[Any], ctx=None) -> List[List[Any]]:
        """Native multi-term lookup: the postings store serves the whole
        term list in one request."""
        return self._native_lookup_batch(keys, ctx)

    def document_frequency(self, term: str) -> int:
        return len(self._postings.get(term.lower(), {}))

    @property
    def num_terms(self) -> int:
        return len(self._postings)

    @property
    def num_docs(self) -> int:
        return self._num_docs

    def fingerprint(self) -> int:
        return self._num_docs * 1000003 + len(self._postings)
