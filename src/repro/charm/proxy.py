"""Proxies: the handles through which entry methods are invoked.

``proxy.method(args...)`` sends an asynchronous entry-method invocation to
the chare the proxy names; nothing is returned (message-driven execution).
Array proxies support element indexing (``array[3].foo()``) and broadcast
(``array.foo()`` with no index selects every element).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, List

if TYPE_CHECKING:  # pragma: no cover
    from repro.charm.charm import Charm


class _Invoker:
    """Bound entry-method name; calling it fires the invocation."""

    __slots__ = ("_proxy", "_method")

    def __init__(self, proxy: "ChareProxy", method: str) -> None:
        self._proxy = proxy
        self._method = method

    def __call__(self, *args: Any) -> None:
        self._proxy._charm.invoke(self._proxy._chare_id, self._method, args)


class ChareProxy:
    """Proxy to a single chare."""

    __slots__ = ("_charm", "_chare_id")

    def __init__(self, charm: "Charm", chare_id: int) -> None:
        self._charm = charm
        self._chare_id = chare_id

    @property
    def chare_id(self) -> int:
        return self._chare_id

    def __getattr__(self, name: str) -> _Invoker:
        if name.startswith("_"):
            raise AttributeError(name)
        return _Invoker(self, name)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ChareProxy) and other._chare_id == self._chare_id

    def __hash__(self) -> int:
        return hash(("proxy", self._chare_id))


class _CollectionInvoker:
    """Broadcast invoker of an array proxy."""

    __slots__ = ("_coll", "_method")

    def __init__(self, coll: "ArrayProxy", method: str) -> None:
        self._coll = coll
        self._method = method

    def __call__(self, *args: Any) -> None:
        for cid in self._coll._element_ids:
            self._coll._charm.invoke(cid, self._method, args)


class ArrayProxy:
    """A 1-D chare array with an arbitrary element->PE mapping."""

    def __init__(self, charm: "Charm", element_ids: List[int]) -> None:
        self._charm = charm
        self._element_ids = element_ids

    def __len__(self) -> int:
        return len(self._element_ids)

    def __getitem__(self, index: int) -> ChareProxy:
        return ChareProxy(self._charm, self._element_ids[index])

    def __getattr__(self, name: str) -> _CollectionInvoker:
        if name.startswith("_"):
            raise AttributeError(name)
        return _CollectionInvoker(self, name)
