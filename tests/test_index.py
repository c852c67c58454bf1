"""Tests for the method index (Fig. 8) and the reachability index."""

import pytest

from repro import MethodIndex, ReachabilityIndex, TypeSystem
from repro.codemodel import LibraryBuilder


@pytest.fixture
def world():
    ts = TypeSystem()
    lib = LibraryBuilder(ts)
    animal = lib.cls("Zoo.Animal")
    dog = lib.cls("Zoo.Dog", base=animal)
    feed = lib.static_method("Zoo.Keeper", "Feed", params=[("a", animal)])
    walk = lib.static_method("Zoo.Keeper", "Walk", params=[("d", dog)])
    groom = lib.method(dog, "Groom")
    lib.prop(dog, "Tail", ts.string_type)
    lib.prop(animal, "Home", ts.try_get("Zoo.Dog") or dog)
    return ts, animal, dog, feed, walk, groom


class TestMethodIndex:
    def test_exact_param_lookup(self, world):
        ts, animal, dog, feed, walk, groom = world
        index = MethodIndex(ts)
        exact_dog = index.methods_with_exact_param(dog)
        assert walk in exact_dog
        assert groom in exact_dog  # receiver counts as a parameter
        assert feed not in exact_dog

    def test_accepting_walks_supertypes(self, world):
        ts, animal, dog, feed, walk, groom = world
        index = MethodIndex(ts)
        accepting = index.methods_accepting(dog)
        assert feed in accepting and walk in accepting
        # nearest types first: Dog-exact methods precede Animal methods
        assert accepting.index(walk) < accepting.index(feed)

    def test_accepting_excludes_unrelated(self, world):
        ts, animal, dog, feed, walk, groom = world
        index = MethodIndex(ts)
        assert walk not in index.methods_accepting(animal)

    def test_candidate_methods_picks_smallest_set(self, world):
        ts, animal, dog, feed, walk, groom = world
        index = MethodIndex(ts)
        # Dog accepts 3+ methods, Animal fewer; index must pick the smaller
        candidates = index.candidate_methods([dog, animal])
        by_animal = index.methods_accepting(animal)
        assert len(candidates) == min(
            len(index.methods_accepting(dog)), len(by_animal)
        )

    def test_candidate_methods_wildcards_fall_back_to_all(self, world):
        ts, *_ = world
        index = MethodIndex(ts)
        assert len(index.candidate_methods([None])) == len(index)

    def test_index_is_complete(self, world):
        """Index lookup finds every method a brute-force scan finds."""
        ts, animal, dog, *_ = world
        index = MethodIndex(ts)
        for query_type in (animal, dog, ts.string_type):
            brute = {
                id(m)
                for m in ts.all_methods()
                if any(
                    ts.implicitly_converts(query_type, p.type)
                    for p in m.all_params()
                )
            }
            indexed = {id(m) for m in index.methods_accepting(query_type)}
            assert indexed == brute


class TestIndexStats:
    def test_stats_shape(self, world):
        ts, *_ = world
        index = MethodIndex(ts)
        stats = index.stats()
        assert stats["methods"] == len(index)
        assert stats["indexed_types"] > 0
        assert stats["largest_bucket"] <= stats["methods"]
        assert 0 < stats["mean_bucket"] <= stats["largest_bucket"]

    def test_buckets_are_smaller_than_universe(self, world):
        """The point of the index: per-type candidate sets are much smaller
        than the set of all methods."""
        ts, animal, dog, *_ = world
        index = MethodIndex(ts)
        assert len(index.methods_with_exact_param(dog)) < len(index)


class TestReachabilityIndex:
    def test_self_is_reachable_at_zero(self, world):
        ts, animal, dog, *_ = world
        reach = ReachabilityIndex(ts)
        assert reach.reachable(dog, allow_methods=True)[dog.full_name] == 0

    def test_field_step(self, world):
        ts, animal, dog, *_ = world
        reach = ReachabilityIndex(ts)
        distances = reach.reachable(dog, allow_methods=False)
        assert distances["System.String"] == 1  # via Tail

    def test_steps_to_target_uses_conversion(self, world):
        ts, animal, dog, *_ = world
        reach = ReachabilityIndex(ts)
        # Animal.Home is a Dog, which converts to Animal
        assert reach.steps_to_target(animal, animal, allow_methods=False) == 0
        assert reach.steps_to_target(animal, dog, allow_methods=False) == 1

    def test_unreachable_is_none(self, world):
        ts, animal, dog, *_ = world
        lib = LibraryBuilder(ts)
        island = lib.cls("Far.Island")
        reach = ReachabilityIndex(ts)
        assert reach.steps_to_target(dog, island, allow_methods=True) is None

    def test_can_reach_respects_budget(self, world):
        ts, animal, dog, *_ = world
        reach = ReachabilityIndex(ts)
        assert reach.can_reach(dog, ts.string_type, within=1, allow_methods=False)
        assert not reach.can_reach(
            animal, ts.string_type, within=1, allow_methods=False
        )
        assert reach.can_reach(
            animal, ts.string_type, within=2, allow_methods=False
        )

    def test_depth_bound(self, world):
        ts, animal, dog, *_ = world
        reach = ReachabilityIndex(ts, max_depth=0)
        assert reach.steps_to_target(dog, ts.string_type, True) is None


class TestIncrementalRefresh:
    """Mutation windows patch the indexes instead of rebuilding them."""

    def test_field_only_edit_skips_both_patch_and_rebuild(self, world):
        from repro.codemodel.members import Field

        ts, animal, dog, *_ = world
        index = MethodIndex(ts)
        dog.add_field(Field("zzWeight", ts.string_type))
        index.refresh()
        # fields never enter the method index: a field-only window is a
        # pure restamp, not a patch
        assert index.patches == 0
        assert index.rebuilds == 0
        assert index.built_version == ts.version

    def test_method_edit_patches_to_cold_equivalence(self, world):
        from repro.codemodel.members import Method, Parameter

        ts, animal, dog, *_ = world
        warm = MethodIndex(ts)
        dog.add_method(
            Method("zzFetch", return_type=ts.string_type,
                   params=[Parameter("toy", ts.string_type)]))
        warm.refresh()
        assert warm.patches == 1
        assert warm.rebuilds == 0

        cold = MethodIndex(ts)
        assert [id(m) for m in warm.all_methods()] == [
            id(m) for m in cold.all_methods()]
        assert set(warm._by_exact_type) == set(cold._by_exact_type)
        for key, bucket in cold._by_exact_type.items():
            assert [id(m) for m in warm._by_exact_type[key]] == [
                id(m) for m in bucket]

    def test_method_reorder_patch_restores_declaration_order(self, world):
        ts, animal, dog, *_ = world
        warm = MethodIndex(ts)
        dog.set_member_order(methods=list(reversed(dog.methods)))
        warm.refresh()
        assert warm.patches == 1

        cold = MethodIndex(ts)
        assert [id(m) for m in warm.methods_accepting(dog)] == [
            id(m) for m in cold.methods_accepting(dog)]

    def test_structural_edit_forces_rebuild(self, world):
        ts, animal, dog, *_ = world
        lib = LibraryBuilder(ts)
        index = MethodIndex(ts)
        lib.cls("Zoo.Cat", base=animal)
        index.refresh()
        assert index.rebuilds == 1
        assert index.patches == 0

    def test_reachability_preserves_walks_on_unrelated_edit(self, world):
        from repro.codemodel.members import Field

        ts, animal, dog, *_ = world
        lib = LibraryBuilder(ts)
        island = lib.cls("Far.Island")
        reach = ReachabilityIndex(ts)
        reach.reachable(dog, allow_methods=False)
        assert (dog.full_name, False) in reach._walk_fp

        island.add_field(Field("zzSand", ts.string_type))
        reach.refresh()
        # Island is not in the Dog walk's footprint: the memo survives
        assert (dog.full_name, False) in reach._walk_fp

    def test_reachability_drops_walks_touching_the_edit(self, world):
        from repro.codemodel.members import Field

        ts, animal, dog, *_ = world
        reach = ReachabilityIndex(ts)
        reach.reachable(dog, allow_methods=False)
        assert (dog.full_name, False) in reach._walk_fp

        dog.add_field(Field("zzBone", ts.string_type))
        reach.refresh()
        assert (dog.full_name, False) not in reach._walk_fp


def oracle_steps(ts, walks, source, target, allow_methods):
    """The per-target scan ``steps_to_target`` replaced: the fewest
    steps over the walk to a type that implicitly converts to
    ``target``."""
    best = None
    for name, steps in walks.reachable(source, allow_methods).items():
        reached = ts.try_get(name)
        if reached is not None and ts.implicitly_converts(reached, target):
            if best is None or steps < best:
                best = steps
    return best


def assert_matches_oracle(ts, index):
    """Every (source, target, allow) pair answers as the old scan does,
    measured against walks of a fresh index over the same universe."""
    walks = ReachabilityIndex(ts, max_depth=index.max_depth)
    types = ts.all_types()
    for allow in (False, True):
        for source in types:
            for target in types:
                assert index.steps_to_target(source, target, allow) == \
                    oracle_steps(ts, walks, source, target, allow), (
                        source.full_name, target.full_name, allow)


UNIVERSES = ("paint", "geometry", "bcl")


class TestTargetMapDifferential:
    """``steps_to_target`` is one lookup in a per-walk target map; the
    answers must equal the per-target scan it replaced."""

    @pytest.mark.parametrize("universe", UNIVERSES)
    def test_fresh_index(self, universe):
        from repro.ide.workspace import Workspace

        ts = Workspace.builtin(universe).ts
        index = ReachabilityIndex(ts)
        assert_matches_oracle(ts, index)
        stats = index.stats()
        # one map per walk, built once; every other call is a hit
        assert stats["targets"] == stats["misses"] == 2 * len(ts.all_types())
        assert stats["hits"] == 2 * len(ts.all_types()) ** 2 - stats["misses"]

    @pytest.mark.parametrize("universe", UNIVERSES)
    def test_patched_index_drops_stale_maps(self, universe):
        from repro.codemodel.members import Field, Method
        from repro.ide.workspace import Workspace

        ts = Workspace.builtin(universe).ts
        index = ReachabilityIndex(ts)
        assert_matches_oracle(ts, index)
        types = [t for t in ts.all_types() if not t.is_primitive]
        # an edit that opens a new one-step route: a field on the
        # source, and a zero-arg method on another type
        source, target = next(
            (s, t) for s in types for t in types
            if index.steps_to_target(s, t, False) is None)
        source.add_field(Field("zzNewRoute", target))
        assert index.steps_to_target(source, target, False) == 1
        holder, returned = next(
            (s, t) for s in types for t in types
            if index.steps_to_target(s, t, True) is None)
        holder.add_method(Method("ZzNewCall", return_type=returned))
        assert index.steps_to_target(holder, returned, True) == 1
        assert index.patches == 2 and index.rebuilds == 0
        assert (source.full_name, False) not in index._targets
        assert_matches_oracle(ts, index)

    @pytest.mark.parametrize("universe", UNIVERSES)
    def test_pack_restored_index(self, universe, tmp_path):
        from repro.api import build_pack, load_pack
        from repro.ide.workspace import Workspace

        path = str(tmp_path / "{}.pack".format(universe))
        build_pack(Workspace.builtin(universe), path)
        loaded = load_pack(path)
        index = loaded.engine.reachability
        assert index._packed and not index._targets
        assert_matches_oracle(loaded.ts, index)
        assert index.rebuilds == 0
