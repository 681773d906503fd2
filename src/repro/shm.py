"""Zero-copy graph sharing for parallel sweeps.

The pickling path rebuilds every instance inside every worker task (the
task carries only ``(family, n, seed, index)`` digests and the worker
re-derives the graph).  At n=10^6 the rebuild dominates the task, so
:class:`SharedGraphPool` publishes each instance **that more than one
task reads** once: the CSR arrays (``indptr``, ``indices``) and a coded
copy of the node inputs are laid out in a single
:mod:`multiprocessing.shared_memory` segment, and workers attach
zero-copy views via :meth:`repro.local.graph.Graph.from_csr_buffers`
instead of rebuilding.  An instance read by a single task gains nothing
from sharing, so the sweep leaves it to that task's worker to build.

Protocol (see ``docs/engine-contract.md``):

1. the parent builds each instance read by more than one task (several
   algorithms or ID-sample chunks) and calls
   :meth:`SharedGraphPool.publish` under a stable digest key — one
   segment per graph, layout ``[indptr | indices | input codes]``;
2. the tiny picklable :class:`GraphSpec` tuples travel to the pool through
   ``fork_map``'s ``initializer``/``initargs`` hook
   (:func:`worker_attach_specs`);
3. workers resolve graphs lazily by key through :func:`shared_graph`,
   caching one attachment per process; a miss returns ``None`` and the
   caller falls back to the rebuild path, so shared memory is always an
   optimisation and never a semantic switch — JSON aggregates stay
   byte-identical with it on or off, at any worker count;
4. the parent owns the segments: :meth:`SharedGraphPool.close` (or the
   context manager) unlinks everything after the map returns.

Workers immediately unregister their attachments from the
``resource_tracker`` — Python 3.11 registers attached segments as if the
attacher owned them, which would otherwise unlink segments out from
under sibling workers and spam leak warnings at pool shutdown.
"""

from __future__ import annotations

from dataclasses import dataclass
from multiprocessing import resource_tracker, shared_memory
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .local.graph import Graph

__all__ = [
    "GraphSpec",
    "SharedGraphPool",
    "attach_graph",
    "worker_attach_specs",
    "worker_detach",
    "shared_graph",
]

_ITEM = 8  # int64 bytes

#: the input section codes labels as uint8 indices into the spec's
#: alphabet — larger alphabets fall back to the rebuild path
MAX_ALPHABET = 256


@dataclass(frozen=True)
class GraphSpec:
    """Everything a worker needs to attach one published graph: the pool
    key, the OS-level segment name, the CSR shape and the (small) input
    alphabet.  Pickles in tens of bytes regardless of graph size."""

    key: str
    shm_name: str
    n: int
    m: int
    alphabet: Optional[Tuple[object, ...]]  # None -> every input is None

    def nbytes(self) -> int:
        base = _ITEM * (self.n + 1) + _ITEM * 2 * self.m
        return base + (self.n if self.alphabet is not None else 0)


class _CodedInputs:
    """Read-only sequence decoding uint8 input codes through a small
    alphabet on access — attaching never materializes an n-element label
    list."""

    __slots__ = ("_codes", "_alphabet")

    def __init__(self, codes, alphabet: Tuple[object, ...]) -> None:
        self._codes = codes
        self._alphabet = alphabet

    def __len__(self) -> int:
        return len(self._codes)

    def __getitem__(self, item):
        if isinstance(item, slice):
            return [self._alphabet[c] for c in self._codes[item]]
        return self._alphabet[self._codes[item]]

    def __iter__(self):
        alphabet = self._alphabet
        for c in self._codes:
            yield alphabet[c]


def _encode_inputs(inputs: Sequence) -> Tuple[Optional[Tuple[object, ...]], bytes]:
    """(alphabet, uint8 codes) for ``inputs``; ``(None, b"")`` when every
    label is ``None``.  Raises ``ValueError`` past :data:`MAX_ALPHABET`."""
    alphabet: List[object] = []
    index: Dict[object, int] = {}
    codes = bytearray(len(inputs))
    uniform_none = True
    for i, label in enumerate(inputs):
        if label is not None:
            uniform_none = False
        code = index.get(label)
        if code is None:
            code = len(alphabet)
            if code >= MAX_ALPHABET:
                raise ValueError(
                    f"input alphabet exceeds {MAX_ALPHABET} distinct labels"
                )
            index[label] = code
            alphabet.append(label)
        codes[i] = code
    if uniform_none:
        return None, b""
    return tuple(alphabet), bytes(codes)


def attach_graph(spec: GraphSpec, shm: shared_memory.SharedMemory) -> Graph:
    """Zero-copy :class:`Graph` over an already-opened segment.

    The whole segment is sealed read-only before slicing, so the CSR
    views *and* the coded-input bytes all reject stores (SHM001): an
    attached segment is concurrently mapped by every sibling worker, and
    a write here would race all of them.  Only the publishing parent
    (``SharedGraphPool.publish``) writes, before any worker attaches.
    """
    a = _ITEM * (spec.n + 1)
    b = a + _ITEM * 2 * spec.m
    buf = shm.buf.toreadonly()
    if spec.alphabet is None:
        return Graph.from_csr_buffers(spec.n, spec.m, buf[:a], buf[a:b])
    inputs = _CodedInputs(buf[b:b + spec.n], spec.alphabet)
    return Graph.from_csr_buffers(
        spec.n, spec.m, buf[:a], buf[a:b], inputs, copy_inputs=False
    )


class SharedGraphPool:
    """Parent-side registry of published graphs.

    ``publish`` is idempotent per key; ``specs()`` is what goes into
    ``fork_map(initializer=worker_attach_specs, initargs=(specs,))``;
    ``graph(key)`` serves the parent's own in-process lookups (the
    ``workers=1`` path attaches nothing).  Always ``close()`` (or use as
    a context manager) — segments outlive the process otherwise.
    """

    def __init__(self) -> None:
        self._specs: Dict[str, GraphSpec] = {}
        self._segments: Dict[str, shared_memory.SharedMemory] = {}
        self._graphs: Dict[str, Graph] = {}

    def __enter__(self) -> "SharedGraphPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __len__(self) -> int:
        return len(self._specs)

    def publish(self, key: str, graph: Graph) -> GraphSpec:
        if key in self._specs:
            return self._specs[key]
        indptr, indices = graph.adjacency()
        alphabet, codes = _encode_inputs(graph.inputs())
        spec = GraphSpec(key, "", graph.n, graph.m, alphabet)
        shm = shared_memory.SharedMemory(
            create=True, size=max(1, spec.nbytes())
        )
        spec = GraphSpec(key, shm.name, graph.n, graph.m, alphabet)
        a = _ITEM * (graph.n + 1)
        b = a + _ITEM * 2 * graph.m
        shm.buf[:a] = memoryview(indptr).cast("B")
        shm.buf[a:b] = memoryview(indices).cast("B")
        if alphabet is not None:
            shm.buf[b:b + graph.n] = codes
        self._specs[key] = spec
        self._segments[key] = shm
        self._graphs[key] = graph
        return spec

    def specs(self) -> Tuple[GraphSpec, ...]:
        return tuple(self._specs.values())

    def graph(self, key: str) -> Optional[Graph]:
        return self._graphs.get(key)

    def close(self) -> None:
        """Drop every published segment (close + unlink)."""
        self._graphs.clear()
        worker_detach()  # in-process attaches alias our segments
        for shm in self._segments.values():
            try:
                shm.close()
            except BufferError:  # a caller still holds an attached view
                pass
            try:
                shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
        self._segments.clear()
        self._specs.clear()


# ----------------------------------------------------------------------
# worker side: spec registry + lazy cached attachments
# ----------------------------------------------------------------------
_WORKER_SPECS: Dict[str, GraphSpec] = {}
_WORKER_GRAPHS: Dict[str, Graph] = {}
_WORKER_SEGMENTS: Dict[str, shared_memory.SharedMemory] = {}
# segments whose views a caller still held at detach time — parked here
# so their __del__ never fires against exported buffers
_ZOMBIE_SEGMENTS: List[shared_memory.SharedMemory] = []


def _attach_untracked(name: str) -> shared_memory.SharedMemory:
    """Attach without registering with the resource tracker.

    Python 3.11 has no ``SharedMemory(track=False)``: attaching registers
    the segment as if the attacher owned it, and because the tracker's
    cache is a set, concurrent register/unregister pairs from sibling
    workers interleave into spurious unlinks and KeyError spam at pool
    shutdown.  Only the publishing parent should track (and unlink) a
    segment, so the attach temporarily no-ops ``register``.
    """
    saved = resource_tracker.register
    resource_tracker.register = lambda *args, **kwargs: None  # type: ignore[assignment]
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = saved  # type: ignore[assignment]


def worker_attach_specs(specs: Iterable[GraphSpec]) -> None:
    """``fork_map`` initializer: record which graphs this executor may
    attach.  Attachment itself is lazy (first :func:`shared_graph` hit)."""
    worker_detach()
    for spec in specs:
        _WORKER_SPECS[spec.key] = spec


def worker_detach() -> None:
    """Teardown twin of :func:`worker_attach_specs` — drops cached
    attachments and the spec registry (pool workers also get this for
    free at process exit)."""
    _WORKER_SPECS.clear()
    _WORKER_GRAPHS.clear()  # graphs die first, releasing exported views
    for shm in _WORKER_SEGMENTS.values():
        try:
            shm.close()
        except BufferError:  # pragma: no cover - caller kept a graph
            _ZOMBIE_SEGMENTS.append(shm)
    _WORKER_SEGMENTS.clear()


def shared_graph(key: str) -> Optional[Graph]:
    """The graph published under ``key``, or ``None`` when this executor
    was not initialized with it (callers then rebuild — the fallback and
    shared paths are observationally identical)."""
    graph = _WORKER_GRAPHS.get(key)
    if graph is not None:
        return graph
    spec = _WORKER_SPECS.get(key)
    if spec is None:
        return None
    shm = _attach_untracked(spec.shm_name)
    graph = attach_graph(spec, shm)
    _WORKER_GRAPHS[key] = graph
    _WORKER_SEGMENTS[key] = shm
    return graph
