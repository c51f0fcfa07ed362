"""Property tests: degraded views stay complete under link removal.

For *any* survivable set of link failures (the degraded fabric stays
connected), the fault engine's rebuilt routing must stay complete: every
(src, dst) pair routes, every path walks only surviving links, and no
path cycles.  Non-survivable sets must be refused loudly, never served
with a broken table.
"""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.platforms import build_nvfi_mesh, geometry_for
from repro.faults import (
    FaultEngine,
    FaultInjectionError,
    FaultKind,
    FaultPlan,
    FaultSpec,
)
from repro.noc.fabric import fabric_for
from repro.noc.routing import build_routing_table

_PLATFORM = build_nvfi_mesh(geometry_for(16))
_BASE_LINKS = list(_PLATFORM.topology.links)

#: Hypothesis draws subsets of link indices to fail.
link_subsets = st.sets(
    st.sampled_from(range(len(_BASE_LINKS))), max_size=8
)


_GEOMETRY = _PLATFORM.topology.geometry


def _cut_indices(kind, index):
    """Indices of every link at node *index* (``"node"``), or of every
    link crossing the boundary after row / column *index*."""
    cut = set()
    for position, link in enumerate(_BASE_LINKS):
        if kind == "node":
            hit = index in (link.a, link.b)
        else:
            axis = 1 if kind == "row" else 0
            ends = sorted(
                _GEOMETRY.coordinates(node)[axis] for node in (link.a, link.b)
            )
            hit = ends[0] <= index < ends[1]
        if hit:
            cut.add(position)
    return cut


@st.composite
def disconnecting_subsets(draw):
    """A removal that disconnects the mesh by construction: one node's
    links or one row / column boundary's links, plus a few more."""
    kind = draw(st.sampled_from(("node", "row", "column")))
    last = {
        "node": _GEOMETRY.num_nodes - 1,
        "row": _GEOMETRY.rows - 2,
        "column": _GEOMETRY.columns - 2,
    }[kind]
    index = draw(st.integers(0, last))
    extra = draw(st.sets(st.sampled_from(range(len(_BASE_LINKS))), max_size=3))
    return _cut_indices(kind, index) | extra


def _removed_keys(indices):
    return {_BASE_LINKS[i].key for i in indices}


def _plan_for(indices):
    events = tuple(
        FaultSpec(FaultKind.LINK_FAILURE, 0.0, tuple(sorted(_BASE_LINKS[i].key)))
        for i in sorted(indices)
    )
    return FaultPlan(events=events)


@settings(max_examples=60, deadline=None)
@given(indices=link_subsets)
def test_survivable_removal_keeps_routing_complete(indices):
    removed = _removed_keys(indices)
    degraded = _PLATFORM.topology.without_links(removed)
    assume(degraded.is_connected())

    surviving = {link.key for link in degraded.links}
    assert surviving == {l.key for l in _BASE_LINKS} - removed

    table = build_routing_table(degraded)
    n = degraded.num_nodes
    for src in range(n):
        for dst in range(n):
            path = table.path(src, dst)
            assert path[0] == src
            assert path[-1] == dst
            # Simple path: no node revisited (routing never cycles).
            assert len(set(path)) == len(path)
            for a, b in zip(path, path[1:]):
                hop = frozenset((a, b))
                assert hop in surviving
                assert hop not in removed


@settings(max_examples=40, deadline=None)
@given(indices=link_subsets)
def test_engine_degraded_platform_routes_around_failures(indices):
    removed = _removed_keys(indices)
    assume(_PLATFORM.topology.without_links(removed).is_connected())

    engine = FaultEngine(_PLATFORM, _plan_for(indices))
    platform_dirty, _ = engine.activate_due(1.0)
    effective = engine.effective_platform()
    if not indices:
        # Nothing removed: the engine must hand back the base platform
        # itself so the no-fault prefix shares every cached table.
        assert effective is _PLATFORM
        return
    assert platform_dirty
    assert engine.removed_links == removed
    surviving = {link.key for link in effective.topology.links}
    assert surviving.isdisjoint(removed)
    assert len(surviving) == len(_BASE_LINKS) - len(removed)
    # The rebuilt table never routes over a failed link.
    for src in range(effective.topology.num_nodes):
        for dst in range(effective.topology.num_nodes):
            path = effective.routing.path(src, dst)
            for a, b in zip(path, path[1:]):
                assert frozenset((a, b)) not in removed


@settings(max_examples=40, deadline=None)
@given(indices=disconnecting_subsets())
def test_non_survivable_removal_is_refused(indices):
    removed = _removed_keys(indices)
    assert not _PLATFORM.topology.without_links(removed).is_connected()

    engine = FaultEngine(_PLATFORM, _plan_for(indices))
    engine.activate_due(1.0)
    try:
        engine.effective_platform()
    except FaultInjectionError:
        return
    raise AssertionError(
        "disconnected degraded topology was served instead of refused"
    )


@settings(max_examples=40, deadline=None)
@given(indices=link_subsets)
def test_without_links_is_strict_and_gets_its_own_fabric(indices):
    removed = _removed_keys(indices)
    assume(indices)
    once = _PLATFORM.topology.without_links(removed)
    assert len(once.links) == len(_BASE_LINKS) - len(removed)
    if once.is_connected():
        fabric = fabric_for(
            once, build_routing_table(once),
            _PLATFORM.wireless_spec.num_channels, _PLATFORM.noc_params,
        )
        assert fabric is not _PLATFORM.fabric
    # Strict contract: removing an already-removed link is an error, not
    # a silent no-op (double-removal would hide a plan/topology mismatch).
    try:
        once.without_links(removed)
    except KeyError:
        pass
    else:
        raise AssertionError("double removal was silently accepted")
