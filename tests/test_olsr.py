"""Protocol-state machinery: configs, messages, MPRs, topology, routes."""

import copy
import math
import random
from dataclasses import fields, replace

import pytest

from conftest import assert_expiry_order, assert_hello_fresh, assert_providers_fresh
from olsrtune.errors import ConfigurationError
from olsrtune.olsr import (
    GENE_NAMES,
    HELLO_ENTRY_BYTES,
    HELLO_HEADER_BYTES,
    TC_ENTRY_BYTES,
    TC_HEADER_BYTES,
    WILL_ALWAYS,
    WILL_DEFAULT,
    WILL_NEVER,
    Hello,
    Neighbor,
    OlsrConfig,
    OlsrNodeState,
    ParamSpace,
    Tc,
    compute_routes,
    config_from_dict,
    config_to_dict,
    decode_genome,
    default_param_space,
    encode_config,
    ensure_mprs,
    ensure_routes,
    expire,
    hello_emission_interval,
    make_hello,
    make_tc,
    next_hello,
    next_tc,
    process_hello,
    process_tc,
    receive_hello,
    receive_tc,
    rfc_default,
    routes,
    select_mprs,
    should_forward,
)

CFG = rfc_default()


def nbr(sym, expiry, will=WILL_DEFAULT, adv=(), stragglers=None):
    """A Neighbor record."""
    return Neighbor(sym, expiry, will, frozenset(adv), dict(stragglers or {}))


def hello(sender, *, sym=(), asym=(), mpr=(), will=WILL_DEFAULT):
    """A HELLO from `sender` listing `sym` as symmetric, `asym` as
    asymmetric and `mpr` as symmetric and selected as MPR."""
    adv = frozenset(sym) | frozenset(mpr)
    return Hello(sender, will, adv | frozenset(asym), frozenset(mpr), adv)


def link(s, n):
    """Neighbour n's (symmetric, expiry) pair."""
    return s.neighbors[n].sym, s.neighbors[n].expiry


class TestConfig:
    def test_rfc_defaults(self):
        assert encode_config(CFG) == (2.0, 2.0, 5.0, 3.0, 6.0, 15.0, 15.0, 30.0)

    def test_gene_order(self):
        assert GENE_NAMES == (
            "hello_interval",
            "refresh_interval",
            "tc_interval",
            "willingness",
            "neighb_hold_time",
            "mid_hold_time",
            "top_hold_time",
            "dup_hold_time",
        )
        assert tuple(f.name for f in fields(OlsrConfig)) == GENE_NAMES

    @pytest.mark.parametrize(
        "field,value",
        [
            ("hello_interval", 1.9),
            ("hello_interval", 15.1),
            ("tc_interval", 3.0),
            ("willingness", 8),
            ("neighb_hold_time", 5.0),
            ("dup_hold_time", 91.0),
        ],
    )
    def test_out_of_range_rejected(self, field, value):
        kw = config_to_dict(CFG)
        kw[field] = value
        with pytest.raises(ConfigurationError):
            OlsrConfig(**kw)

    def test_dict_round_trip(self):
        assert config_from_dict(config_to_dict(CFG)) == CFG

    def test_dict_missing_field(self):
        doc = config_to_dict(CFG)
        del doc["tc_interval"]
        with pytest.raises(ConfigurationError):
            config_from_dict(doc)

    def test_emission_interval_is_min(self):
        fast_refresh = decode_genome((10, 3, 5, 3, 6, 15, 15, 30), default_param_space())
        assert hello_emission_interval(fast_refresh) == 3.0
        assert hello_emission_interval(CFG) == 2.0


class TestDecode:
    def setup_method(self):
        self.space = default_param_space()

    def test_identity_on_rfc(self):
        assert decode_genome(self.space.rfc, self.space) == CFG

    def test_clamping(self):
        cfg = decode_genome((-10, 99, 4, 3, 6, 15, 15, 30), self.space)
        assert cfg.hello_interval == 2.0
        assert cfg.refresh_interval == 15.0
        # clip is the decode rule, on vectors reaching one span beyond either bound
        rng = random.Random(8)
        for _ in range(500):
            genes = tuple(rng.uniform(2 * lo - hi, 2 * hi - lo) for lo, hi in self.space.bounds)
            clipped = self.space.clip(genes)
            assert self.space.clip(clipped) == clipped
            assert decode_genome(genes, self.space) == decode_genome(clipped, self.space)
            assert encode_config(decode_genome(genes, self.space)) == clipped

    def test_willingness_rounds_half_up(self):
        for gene, expected in ((2.5, 3), (2.49, 2), (-0.6, 0), (7.5, 7)):
            genes = (2, 2, 5, gene, 6, 15, 15, 30)
            assert decode_genome(genes, self.space).willingness == expected
            assert self.space.clip(genes)[3] == float(expected)

    def test_integer_gene_needs_whole_bounds(self):
        # the one space has no fields: PARAMS fixes it, so its invariants
        # are checked here once; clip rounds an integer gene to a whole
        # number inside its bounds, so those bounds must be whole
        assert fields(ParamSpace) == ()
        for k, ((lo, hi), z) in enumerate(zip(self.space.bounds, self.space.rfc)):
            assert lo < hi and lo <= z <= hi
            if k in self.space.integer_genes:
                assert float(lo).is_integer() and float(hi).is_integer()

    def test_gene_positions(self):
        cfg = decode_genome((3, 4, 6, 1, 7, 11, 12, 13), self.space)
        assert cfg.mid_hold_time == 11.0
        assert cfg.top_hold_time == 12.0
        assert cfg.dup_hold_time == 13.0

    def test_non_finite_rejected(self):
        with pytest.raises(ConfigurationError):
            decode_genome((math.nan, 2, 5, 3, 6, 15, 15, 30), self.space)

    def test_wrong_length(self):
        with pytest.raises(ConfigurationError):
            decode_genome((2.0, 2.0), self.space)

    def test_encode_round_trip(self):
        genes = (3.5, 4.25, 30.0, 5.0, 44.0, 10.5, 89.0, 12.0)
        assert encode_config(decode_genome(genes, self.space)) == genes


class TestMessages:
    def test_hello_size_empty(self):
        msg = make_hello(OlsrNodeState(node_id=0), CFG)
        assert msg.size == HELLO_HEADER_BYTES
        assert msg.will == CFG.willingness
        assert msg[2:] == (set(), set(), set())  # listed, mprs, adv

    def test_hello_size_grows_per_entry(self):
        neighbors = {1: nbr(True, 99.0), 2: nbr(False, 99.0), 3: nbr(True, 99.0)}
        state = OlsrNodeState(node_id=0, neighbors=neighbors, mpr_set=frozenset({3}))
        msg = make_hello(state, CFG)
        assert msg.size == HELLO_HEADER_BYTES + 3 * HELLO_ENTRY_BYTES
        assert msg[2:] == ({1, 2, 3}, {3}, {1, 3})

    def test_hello_advertises_fresh_mprs(self):
        # the MPR set is dirty after a new two-hop id: make_hello selects anew
        state = OlsrNodeState(node_id=0)
        process_hello([state], hello(1, sym=[0, 2]), 0.0, CFG)
        assert state.mprs_dirty
        assert make_hello(state, CFG).mprs == {1}

    def test_tc_seq_increments(self):
        state = OlsrNodeState(node_id=0)
        assert make_tc(state, ()).seq_no == 1
        assert make_tc(state, ()).seq_no == 2

    def test_tc_lists_selectors(self):
        state = OlsrNodeState(node_id=0, neighbors={n: nbr(True, 99.0) for n in (5, 3, 2)})
        state.neighbors[5].selector_expiry = state.neighbors[2].selector_expiry = 99.0
        msg = next_tc(state, 0.0, CFG)
        assert type(msg.selectors) is frozenset and msg.selectors == {2, 5}
        assert msg.size == TC_HEADER_BYTES + 2 * TC_ENTRY_BYTES


class TestLinkSensing:
    def test_handshake(self):
        a, b = OlsrNodeState(node_id=0), OlsrNodeState(node_id=1)
        # B hears A's first HELLO: one-way only
        process_hello([b], make_hello(a, CFG), 0.0, CFG)
        assert link(b, 0) == (False, CFG.neighb_hold_time)
        # A hears B's HELLO, which lists A: link becomes symmetric for A
        process_hello([a], make_hello(b, CFG), 1.0, CFG)
        assert a.neighbors[1].sym is True
        # B hears A's next HELLO, which lists B: symmetric both ways
        process_hello([b], make_hello(a, CFG), 2.0, CFG)
        assert b.neighbors[0].sym is True

    def test_symmetry_is_sticky(self):
        a = OlsrNodeState(node_id=0)
        process_hello([a], hello(1, sym=[0]), 0.0, CFG)
        assert a.neighbors[1].sym is True
        # a later HELLO that no longer lists us keeps the link symmetric
        # until it expires (RFC-style link aging, not instant demotion)
        process_hello([a], hello(1), 1.0, CFG)
        assert a.neighbors[1].sym is True

    def test_two_hop_discovery_and_mpr_selection(self):
        # chain 0-1-2 from node 0's perspective
        a = OlsrNodeState(node_id=0)
        process_hello([a], hello(1, sym=[0]), 0.0, CFG)
        process_hello([a], hello(1, sym=[0, 2]), 1.0, CFG)
        assert 2 in full_hood(a, 1)
        assert ensure_mprs(a) == {1}

    def test_asym_entries_are_not_two_hop(self):
        a = OlsrNodeState(node_id=0)
        process_hello([a], hello(1, sym=[0, 3], asym=[2]), 0.0, CFG)
        assert set(full_hood(a, 1)) == {3}

    def test_mpr_selector_recorded(self):
        b = OlsrNodeState(node_id=1)
        process_hello([b], hello(0, mpr=[1]), 0.0, CFG)
        assert b.neighbors[0].selector_expiry == CFG.neighb_hold_time


class TestSelectMprs:
    def state_with(self, sym_neighbors, wills, two_hop):
        neighbors = {}
        for n in sym_neighbors:
            hood = dict.fromkeys(two_hop.get(n, ()), 999.0)
            neighbors[n] = nbr(True, 999.0, wills.get(n, WILL_DEFAULT), stragglers=hood)
        return OlsrNodeState(node_id=0, neighbors=neighbors)

    def test_greedy_prefers_wider_coverage(self):
        s = self.state_with([1, 2], {}, {1: {10, 11}, 2: {10}})
        assert select_mprs(s) == {1}

    def test_will7_always_selected(self):
        s = self.state_with([1, 2], {1: 7}, {2: {10}})
        mprs = select_mprs(s)
        assert 1 in mprs and 2 in mprs

    def test_will0_never_selected(self):
        s = self.state_with([1, 2], {1: 0}, {1: {10}, 2: {10}})
        assert select_mprs(s) == {2}

    def test_sole_provider_wins_over_greedier_candidate(self):
        # 1 covers {10}; 2 covers {10, 11, 12}; 3 covers {13}: 3 is the only
        # provider of 13 so it must be selected even though 2 covers more
        s = self.state_with([1, 2, 3], {}, {1: {10}, 2: {10, 11, 12}, 3: {13}})
        mprs = select_mprs(s)
        assert 3 in mprs and 2 in mprs and 1 not in mprs

    def test_equals_reference_on_split_hoods(self):
        # hoods split into an advertised set (which may hold our own id)
        # and stragglers select what the full-dict reference selects
        rng = random.Random(55)
        for _case in range(300):
            nbrs = range(1, rng.randint(2, 12))
            syms = {n: rng.random() < 0.8 for n in nbrs}
            wills = {n: rng.choice((0, 1, 3, 3, 6, 7)) for n in nbrs if rng.random() < 0.9}
            neighbors = {}
            for n in nbrs:
                ids = [t for t in range(0, 30) if t != n and rng.random() < 0.2]
                adv = frozenset(t for t in ids if rng.random() < 0.8)
                stragglers = {t: 999.0 for t in ids if t not in adv and t != 0}
                neighbors[n] = nbr(syms[n], 999.0, wills.get(n, WILL_DEFAULT), adv, stragglers)
            s = OlsrNodeState(node_id=0, neighbors=neighbors)
            assert_providers_fresh(s)
            ref = copy.deepcopy(s)
            for n, nb in ref.neighbors.items():
                nb.adv, nb.stragglers = frozenset(), full_hood(s, n)
            assert select_mprs(s) == reference_select_mprs(ref)

    def test_one_hop_nodes_not_targets(self):
        # 2 is already a symmetric neighbor: it needs no MPR coverage
        s = self.state_with([1, 2], {}, {1: {2}})
        assert select_mprs(s) == set()

    def test_provider_left_without_strict_ids_not_picked(self):
        # willingness-6 neighbour 1 provides only 10 until 10 turns into a
        # symmetric neighbour; 1 then provides nothing, and must not win a
        # round over the willingness-3 providers 2 and 3 of 11 and 12
        s = self.state_with([1, 2, 3], {1: 6}, {1: {10}, 2: {11, 12}, 3: {11, 12}})
        assert select_mprs(s) == {1, 2}
        process_hello([s], hello(10, sym=[0]), 1.0, CFG)
        assert s.neighbors[10].sym and 10 not in s.providers
        assert select_mprs(s) == {2}
        assert_providers_fresh(s)

        # the same, when 10 lapses from 1's stragglers
        s = OlsrNodeState(node_id=0)
        for t in (0.0, 1.0):
            process_hello([s], hello(1, sym=[0, 10] if t == 0.0 else [0], will=6), t, CFG)
            for n in (2, 3):
                process_hello([s], hello(n, sym=[0, 11, 12], will=3), t, CFG)
            if t == 0.0:
                assert select_mprs(s) == {1, 2}
        expire(s, CFG.neighb_hold_time + 0.5)
        assert 1 in s.neighbors and 10 not in s.providers
        assert select_mprs(s) == {2}
        assert_providers_fresh(s)


class TestProcessTc:
    def make_tc_msg(self, orig, seq, dests, sender=None):
        return Tc(orig, sender if sender is not None else orig, seq, frozenset(dests))

    def test_topology_recorded(self):
        s = OlsrNodeState(node_id=0)
        process_tc(s, self.make_tc_msg(5, 1, (6, 7)), 0.0, CFG)
        assert set(s.topology[5][0]) == {6, 7}

    def test_newer_seq_replaces(self):
        s = OlsrNodeState(node_id=0)
        process_tc(s, self.make_tc_msg(5, 1, (6,)), 0.0, CFG)
        process_tc(s, self.make_tc_msg(5, 2, (7,)), 1.0, CFG)
        assert set(s.topology[5][0]) == {7}

    def test_own_tc_ignored(self):
        s = OlsrNodeState(node_id=0)
        process_tc(s, self.make_tc_msg(0, 1, (6,)), 0.0, CFG)
        assert s.topology == {}

    def test_newer_seq_same_set_refreshes_without_route_recompute(self):
        s = OlsrNodeState(node_id=0, neighbors={5: nbr(True, 999.0)})
        s.routes_dirty = True  # as process_hello leaves a link turned symmetric
        process_tc(s, self.make_tc_msg(5, 1, (6, 7)), 0.0, CFG)
        assert ensure_routes(s) == {5: (5, 1), 6: (5, 2), 7: (5, 2)}
        process_tc(s, self.make_tc_msg(5, 2, (7, 6, 0)), 1.0, CFG)
        assert s.routes_dirty is False
        assert s.topology[5] == ({6, 7}, 1.0 + CFG.top_hold_time)
        process_tc(s, self.make_tc_msg(5, 3, (6,)), 2.0, CFG)
        assert s.routes_dirty is True

    def test_self_as_dest_skipped(self):
        s = OlsrNodeState(node_id=0)
        process_tc(s, self.make_tc_msg(5, 1, (0, 6)), 0.0, CFG)
        assert set(s.topology[5][0]) == {6}

    def test_unlisted_receiver_keeps_the_tc_set(self):
        # every receiver the TC does not list stores its one selector set
        msg = self.make_tc_msg(5, 1, (6, 7))
        for me in (0, 1):
            s = OlsrNodeState(node_id=me)
            process_tc(s, msg, 0.0, CFG)
            assert s.topology[5][0] is msg.selectors


def assert_clean_routes_exact(s):
    """A clean routing table and its last hops equal compute_routes run on
    a deep copy of the state."""
    if not s.routes_dirty:
        fresh = copy.deepcopy(s)
        compute_routes(fresh)
        assert s.routing_table == fresh.routing_table
        assert s.route_last_hop == fresh.route_last_hop


class TestRouteFilter:
    """process_tc and expire mark clean routes dirty exactly when the table
    can change: hand-made TCs that add, remove and re-add destinations at
    equal hop counts, a shorter route, an unrouted originator and lapses."""

    def clean_state(self, *neighbours):
        s = OlsrNodeState(node_id=0, neighbors={n: nbr(True, 999.0) for n in neighbours})
        s.routes_dirty = True
        ensure_routes(s)
        return s

    def step(self, s, now, orig, seq, dests, dirty):
        if orig is None:
            expire(s, now)
        else:
            process_tc(s, Tc(orig, orig, seq, frozenset(dests)), now, CFG)
        assert s.routes_dirty is dirty
        assert_clean_routes_exact(s)
        return ensure_routes(s)

    def test_equal_hop_add_remove_readd(self):
        s = self.clean_state(1, 2, 3)
        steps = [
            # (orig, seq, dests, dirty, route to 5 after)
            (2, 1, (5,), True, (2, 2)),  # 5 gains a route
            (3, 1, (5,), False, (2, 2)),  # equal hops, larger key (3, 3)
            (1, 1, (5,), True, (1, 2)),  # equal hops, smaller key (1, 1)
            (1, 2, (), True, (2, 2)),  # the winning last hop drops 5
            (3, 2, (), False, (2, 2)),  # a losing last hop drops 5
            (3, 3, (5,), False, (2, 2)),  # ... and adds it back
            (1, 3, (5,), True, (1, 2)),  # the smaller key adds it back
            (2, 2, (), False, (1, 2)),
            (9, 1, (5, 8), False, (1, 2)),  # 9 has no route: never read
        ]
        for orig, seq, dests, dirty, route in steps:
            assert self.step(s, 1.0, orig, seq, dests, dirty)[5] == route
        assert s.route_last_hop[5] == 1

    def test_shorter_route_by_one_hop(self):
        s = self.clean_state(1, 2, 3)
        self.step(s, 0.0, 1, 1, (6,), True)
        assert self.step(s, 0.0, 6, 1, (7,), True)[7] == (1, 3)
        # 2 is one hop away, so 7 through 2 is two hops: one shorter
        assert self.step(s, 0.0, 2, 1, (7,), True)[7] == (2, 2)
        # the same set again, then an equal-hop route with a larger key
        self.step(s, 0.0, 2, 2, (7,), False)
        assert self.step(s, 0.0, 3, 1, (7,), False)[7] == (2, 2)
        # and one with a smaller key
        assert self.step(s, 0.0, 1, 2, (6, 7), True)[7] == (1, 2)

    def test_lapsed_destinations(self):
        s = self.clean_state(1, 2)
        hold = CFG.top_hold_time
        self.step(s, 0.0, 2, 1, (5,), True)
        assert self.step(s, 5.0, 1, 1, (5,), True)[5] == (1, 2)
        # 2's entry lapses; 5's route goes through 1
        assert self.step(s, hold, None, None, None, False) == {1: (1, 1), 2: (2, 1), 5: (1, 2)}
        assert 2 not in s.topology
        self.step(s, hold + 1.0, 2, 2, (5,), False)
        # 1's entry lapses; 5's route went through it
        assert self.step(s, hold + 5.0, None, None, None, True)[5] == (2, 2)


class TestShouldForward:
    """Duplicate suppression, decided in receive_tc alone: node 0 hears
    TCs from node 1, which selected it as MPR."""

    def hear(self, s, now):
        receive_hello([s], hello(1, mpr=[0]), now, CFG)

    def test_duplicate_suppressed(self):
        s = OlsrNodeState(node_id=0)
        self.hear(s, 0.0)
        msg = Tc(9, 1, 1, frozenset({6}))
        assert receive_tc([s], msg, 0.0, CFG) == [msg._replace(sender=0)]
        assert receive_tc([s], msg, 1.0, CFG) == []

    def test_non_selector_not_forwarded_but_recorded(self):
        s = OlsrNodeState(node_id=0)
        receive_hello([s], hello(1, sym=[0]), 0.0, CFG)
        assert should_forward(s, 1, 0.0) is False
        assert receive_tc([s], Tc(9, 1, 1, frozenset({6})), 0.0, CFG) == []
        assert s.last_tc == (9, 1)


class TestRoutes:
    def test_bfs_over_topology(self):
        s = OlsrNodeState(node_id=0, neighbors={1: nbr(True, 999.0)})
        s.topology = {1: (frozenset({2}), 999.0), 2: (frozenset({3}), 999.0)}
        routes = compute_routes(s)
        assert routes == {1: (1, 1), 2: (1, 2), 3: (1, 3)}

    def test_tie_breaks_to_lowest_next_hop(self):
        s = OlsrNodeState(node_id=0, neighbors={1: nbr(True, 999.0), 2: nbr(True, 999.0)})
        s.topology = {1: (frozenset({5}), 999.0), 2: (frozenset({5}), 999.0)}
        assert compute_routes(s)[5] == (1, 2)

    def test_tie_breaks_to_lowest_last_hop_past_two_hops(self):
        # 7 is three hops away through 1, with last hop 4 or 9; a set
        # iterates 9 before 4, so the layer of two-hop ids must be sorted
        s = OlsrNodeState(node_id=0, neighbors={1: nbr(True, 999.0)})
        s.topology = {1: (frozenset({4, 9}), 999.0), 4: (frozenset({7}), 999.0),
                      9: (frozenset({7}), 999.0)}
        assert compute_routes(s)[7] == (1, 3)
        assert s.route_last_hop[7] == 4

    def test_asymmetric_links_unused(self):
        s = OlsrNodeState(node_id=0, neighbors={1: nbr(False, 999.0)})
        assert compute_routes(s) == {}

    def test_unreachable_absent(self):
        s = OlsrNodeState(node_id=0, neighbors={1: nbr(True, 999.0)})
        s.topology = {7: (frozenset({8}), 999.0)}  # island not connected to us
        assert compute_routes(s) == {1: (1, 1)}

    def test_asym_hello_leaves_routes_clean(self):
        s = OlsrNodeState(node_id=0)
        ensure_routes(s)
        process_hello([s], hello(1, sym=[2]), 0.0, CFG)
        assert link(s, 1) == (False, CFG.neighb_hold_time)
        assert s.routes_dirty is False

    def test_asym_link_expiry_leaves_routes_clean(self):
        s = OlsrNodeState(node_id=0)
        process_hello([s], hello(1), 0.0, CFG)
        ensure_routes(s)
        expire(s, CFG.neighb_hold_time)
        assert s.neighbors == {}
        assert s.routes_dirty is False


class TestExpire:
    def test_link_expiry_drops_everything_derived(self):
        s = OlsrNodeState(node_id=0)
        process_hello([s], hello(1, sym=[0, 2]), 0.0, CFG)
        assert ensure_mprs(s) == {1}
        expire(s, CFG.neighb_hold_time + 0.01)
        assert s.neighbors == {}
        assert ensure_mprs(s) == set()
        assert compute_routes(s) == {}

    def test_before_expiry_nothing_happens(self):
        s = OlsrNodeState(node_id=0)
        process_hello([s], hello(1, sym=[0]), 0.0, CFG)
        expire(s, CFG.neighb_hold_time - 0.5)
        assert 1 in s.neighbors

    def test_topology_expiry(self):
        s = OlsrNodeState(node_id=0)
        process_tc(s, Tc(5, 5, 1, frozenset({6})), 0.0, CFG)
        expire(s, CFG.top_hold_time + 0.01)
        assert s.topology == {}


class TestEntries:
    """The entries expire first: a lapsed link, MPR selection or neighbour
    counts for nothing at `now`, with no separate expire call."""

    HOLD = CFG.neighb_hold_time

    def test_next_hello_drops_lapsed_link(self):
        s = OlsrNodeState(node_id=0)
        receive_hello([s], hello(1, sym=[0]), 0.0, CFG)
        assert next_hello(s, 1.0, CFG).listed == {1}
        assert next_hello(s, self.HOLD, CFG)[2:] == (set(), set(), set())

    def test_receive_hello_after_lapse_starts_fresh_link(self):
        s = OlsrNodeState(node_id=0)
        receive_hello([s], hello(1, sym=[0]), 0.0, CFG)
        assert link(s, 1) == (True, self.HOLD)
        t = self.HOLD + 1.0
        receive_hello([s], hello(1), t, CFG)
        assert link(s, 1) == (False, t + self.HOLD)

    def test_next_tc_none_once_only_selector_lapsed(self):
        s = OlsrNodeState(node_id=0)
        assert next_tc(s, 0.0, CFG) is None
        assert s.tc_seq == 0
        receive_hello([s], hello(1, mpr=[0]), 0.0, CFG)
        assert next_tc(s, 1.0, CFG) == Tc(0, 0, 1, frozenset({1}))
        assert next_tc(s, self.HOLD, CFG) is None
        assert s.tc_seq == 1
        assert s.neighbors == {}  # the lapsed link went first

    def test_selection_lapses_before_the_link(self):
        # 1 selects us at 0 and lists us as SYM only at 1: at HOLD + 0.5
        # the link is live, but the selection lapsed at HOLD
        s = OlsrNodeState(node_id=0)
        receive_hello([s], hello(1, mpr=[0]), 0.0, CFG)
        receive_hello([s], hello(1, sym=[0]), 1.0, CFG)
        t = self.HOLD + 0.5
        assert receive_tc([s], Tc(5, 1, 1, frozenset({6})), t, CFG) == []
        assert link(s, 1) == (True, 1.0 + self.HOLD)
        assert set(s.topology[5][0]) == {6}  # applied all the same
        assert next_tc(s, t, CFG) is None

    def test_receive_tc_over_lapsed_link_dropped(self):
        s = OlsrNodeState(node_id=0)
        receive_hello([s], hello(1, mpr=[0]), 0.0, CFG)
        assert receive_tc([s], Tc(5, 1, 1, frozenset({6})), self.HOLD, CFG) == []
        assert s.topology == {}
        assert s.last_tc is None

    def test_receive_tc_over_asymmetric_link_dropped(self):
        s = OlsrNodeState(node_id=0)
        receive_hello([s], hello(1), 0.0, CFG)
        assert receive_tc([s], Tc(5, 1, 1, frozenset({6})), 1.0, CFG) == []
        assert s.topology == {}

    def test_routes_skip_lapsed_neighbour(self):
        s = OlsrNodeState(node_id=0)
        receive_hello([s], hello(1, sym=[0]), 0.0, CFG)
        receive_tc([s], Tc(1, 1, 1, frozenset({0, 2})), 0.0, CFG)
        assert routes(s, 1.0) == {1: (1, 1), 2: (1, 2)}
        assert routes(s, self.HOLD) == {}

    def test_receive_tc_relays_only_for_selectors(self):
        s = OlsrNodeState(node_id=0)
        receive_hello([s], hello(1, mpr=[0]), 0.0, CFG)
        receive_hello([s], hello(2, sym=[0]), 0.0, CFG)
        msg = Tc(5, 1, 1, frozenset({6}))
        assert receive_tc([s], msg, 1.0, CFG) == [msg._replace(sender=0)]
        assert receive_tc([s], Tc(5, 2, 2, frozenset({6, 7})), 1.0, CFG) == []
        assert set(s.topology[5][0]) == {6, 7}  # applied all the same

    def test_second_reception_at_same_instant(self):
        s = OlsrNodeState(node_id=0)
        receive_hello([s], hello(1, mpr=[0]), 0.0, CFG)
        receive_hello([s], hello(2, mpr=[0]), 0.0, CFG)
        msg = Tc(5, 1, 1, frozenset({6}))
        assert receive_tc([s], msg, 1.0, CFG) == [msg._replace(sender=0)]
        before = copy.deepcopy(s)
        assert receive_tc([s], msg, 1.0, CFG) == []
        assert receive_tc([s], msg._replace(sender=2), 1.0, CFG) == []
        assert s == before

    def test_one_frame_mixed_receivers(self):
        # one frame from 1, heard in order by 0, which already processed
        # it, by 2 over an asymmetric link, and by 3, which 1 selected as
        # MPR: only 3 relays, and the first two states are untouched
        msg = Tc(5, 1, 1, frozenset({6}))
        a, b, c = (OlsrNodeState(node_id=n) for n in (0, 2, 3))
        receive_hello([a, c], hello(1, mpr=[0, 3]), 0.0, CFG)
        a.last_tc = (5, 1)
        receive_hello([b], hello(1), 0.0, CFG)
        before = copy.deepcopy([a, b])
        assert receive_tc([a, b, c], msg, 1.0, CFG) == [msg._replace(sender=3)]
        assert [a, b] == before
        assert set(c.topology[5][0]) == {6}


def full_hood(s, n):
    """Neighbour n's two-hop hood as {id: expiry}: its advertised set at
    the link expiry plus its stragglers, without our own id."""
    nb = s.neighbors[n]
    hood = {t: nb.expiry for t in nb.adv if t != s.node_id}
    hood.update(nb.stragglers)
    return hood


def stored_expiries(s):
    """The expiries that expire drops entries at, so next_expiry bounds
    them: links, stragglers and topology records. MPR selections lapse by
    their readers' comparison with now instead."""
    out = [nb.expiry for nb in s.neighbors.values()]
    out += [exp for nb in s.neighbors.values() for exp in nb.stragglers.values()]
    out += [exp for _dests, exp in s.topology.values()]
    return out


def lapse_instants(s):
    """Every stored expiry, MPR selections' included: instants at which
    something lapses."""
    return stored_expiries(s) + [nb.selector_expiry for nb in s.neighbors.values()]


def tables(s):
    """Every stored table."""
    return {
        "neighbors": {
            n: (nb.sym, nb.expiry, nb.will, nb.adv, nb.stragglers, nb.selector_expiry)
            for n, nb in s.neighbors.items()
        },
        "topology": s.topology,
    }


def reference_expire(s, now):
    """Full-scan expiry with no MPR or route work: the reference for what
    expire drops and the next_expiry it leaves."""
    if now < s.next_expiry:
        return
    for n in [n for n, nb in s.neighbors.items() if nb.expiry <= now]:
        del s.neighbors[n]
    for table in [nb.stragglers for nb in s.neighbors.values()]:
        for k in [k for k, exp in table.items() if exp <= now]:
            del table[k]
    s.topology = {o: rec for o, rec in s.topology.items() if rec[1] > now}
    s.next_expiry = min(stored_expiries(s), default=math.inf)


class TestLazyEqualsEager:
    """The cached MPR set and routing table equal a fresh evaluation after
    any sequence of calls, and the expiry bounds stay exact."""

    IDS = range(12)

    def random_hello(self, rng, will):
        sender = rng.randint(1, 8)
        links = {"asym": [], "sym": [], "mpr": []}
        for n in self.IDS:
            if n != sender and rng.random() < 0.4:
                links[rng.choice(("asym", "sym", "mpr"))].append(n)
                rng.choice((0, 3, 7))  # unused: keeps each seed's draws as they were
        if rng.random() >= 0.5:
            rng.choice((0, 3, 7))  # unused, as above
        # by contract clause (e) a sender's willingness is fixed; the odd
        # senders keep mixed willingness covered
        own = will if sender % 2 == 0 else (0, 3, 7)[sender % 3]
        return hello(sender, will=own, **links)

    def random_tc(self, rng, last_seq, last_dests=None):
        """A TC with a seq_no above `orig`'s previous one, as contract
        clause (d) has it, and a random destination set, or `orig`'s
        previous one half the time when `last_dests` keeps them."""
        orig = rng.randint(1, 10)
        seq = last_seq[orig] = last_seq.get(orig, 0) + 2 + rng.randint(-1, 1)
        dests = frozenset([n for n in self.IDS if rng.random() < 0.3])
        if last_dests is not None:
            if orig in last_dests and rng.random() < 0.5:
                dests = last_dests[orig]
            last_dests[orig] = dests
        sender = orig if rng.random() < 0.5 else rng.randint(1, 8)
        return Tc(orig, sender, seq, dests)

    def check(self, s, ref):
        """Caches equal fresh evaluations, a kept MPR provider map and
        kept HELLO link sets equal fresh builds, tables equal those of the
        full-scan reference, the links and the straggler and topology
        dicts are in expiry order and no topology record is empty."""
        assert ensure_mprs(s) == select_mprs(copy.deepcopy(s))
        assert_providers_fresh(s)
        assert_hello_fresh(s)
        make_hello(s, CFG)  # keeps link sets for the next check to test
        assert ensure_routes(s) == compute_routes(copy.deepcopy(s))
        got, want = tables(s), tables(ref)
        for name in want:
            assert got[name] == want[name], name
        assert s.next_expiry == ref.next_expiry
        assert all(s.next_expiry <= exp for exp in stored_expiries(s))
        assert_expiry_order(s)
        assert all(dests for dests, _exp in s.topology.values())

    @pytest.mark.parametrize("will", (0, 3, 7))
    @pytest.mark.parametrize("seed", range(4))
    def test_random_call_sequences(self, seed, will):
        self.run_sequence(random.Random(100 * seed + will), will)

    @pytest.mark.parametrize("seed", range(4))
    def test_repeated_tc_sets(self, seed):
        self.run_sequence(random.Random(2000 + seed), 3, repeat_tc_sets=True)

    def run_sequence(self, rng, will, *, repeat_tc_sets=False):
        cfg = replace(
            CFG,
            willingness=will,
            neighb_hold_time=rng.uniform(5.5, 12.0),
            top_hold_time=rng.uniform(10.5, 20.0),
            dup_hold_time=rng.uniform(10.5, 20.0),
        )
        s, ref = OlsrNodeState(node_id=0), OlsrNodeState(node_id=0)
        last_seq = {}
        last_dests = {} if repeat_tc_sets else None
        now = 0.0
        for _step in range(400):
            # a step is a burst of calls, so dirty flags can pile up between reads
            for _call in range(rng.randint(1, 3)):
                due = [exp for exp in lapse_instants(s) if exp > now]
                if due and rng.random() < 0.1:
                    now = min(due)  # land exactly on an expiry: it lapses at <= now
                else:
                    now += rng.uniform(0.0, 1.5) if rng.random() < 0.95 else rng.uniform(5.0, 15.0)
                op = rng.random()
                if op < 0.45:
                    msg = self.random_hello(rng, will)
                    process_hello([s], msg, now, cfg)
                    process_hello([ref], msg, now, cfg)
                elif op < 0.65:
                    msg = self.random_tc(rng, last_seq, last_dests)
                    process_tc(s, msg, now, cfg)
                    process_tc(ref, msg, now, cfg)
                elif op < 0.8:
                    # in receive_tc's order: expire runs before should_forward;
                    # two unused draws keep each seed's draws as they were
                    rng.randint(1, 10)
                    rng.randint(1, 4)
                    sender = rng.randint(1, 8)
                    expire(s, now)
                    reference_expire(ref, now)
                    if sender in s.neighbors:
                        assert should_forward(s, sender, now) == should_forward(ref, sender, now)
                else:
                    expire(s, now)
                    reference_expire(ref, now)
            self.check(s, ref)


def reference_process_hello(
    state: OlsrNodeState, msg: Hello, now: float, config: OlsrConfig
) -> OlsrNodeState:
    """Apply a received HELLO: link sensing, two-hop discovery, MPR
    bookkeeping. The link turns symmetric once the sender lists us.
    Marks MPRs and routes dirty as the module docstring sets out."""
    sender = msg.sender
    me = state.node_id
    if sender == me:
        return state
    own_will = msg.will
    expiry = now + config.neighb_hold_time
    state.next_expiry = min(state.next_expiry, expiry)

    # one pass: spot ourselves in the list, refresh the sender's hood,
    # stored whole in stragglers (adv stays empty)
    prev = state.neighbors.get(sender)
    nb = prev if prev is not None else Neighbor(False, expiry, None)
    listed = me in msg.listed
    listed_as_mpr = me in msg.mprs
    hood = nb.stragglers
    known = len(hood)
    for nbr in msg.adv:
        if nbr != me:
            hood[nbr] = expiry

    was_sym = prev is not None and prev.sym
    sym = listed or was_sym
    nb.sym, nb.expiry = sym, expiry
    state.neighbors[sender] = nb
    link_changed = prev is None or was_sym != sym

    if listed_as_mpr:
        nb.selector_expiry = expiry

    if nb.will != own_will:
        nb.will = own_will
        state.mprs_dirty = True
    if link_changed or len(hood) > known:
        state.mprs_dirty = True
    if link_changed:
        state.routes_dirty = True
    return state


def reference_select_mprs(state):
    """select_mprs as first written, less its debug log: RFC 3626 greedy
    MPR selection over hoods stored as full {id: expiry} dicts in
    stragglers."""
    sym = set()
    for n, nb in state.neighbors.items():
        if nb.sym:
            sym.add(n)

    cover = {}
    for n in sym:
        if state.neighbors[n].will == WILL_NEVER:
            continue
        hood = state.neighbors[n].stragglers
        if not hood:
            continue
        strict = {t for t in hood if t != state.node_id and t not in sym}
        if strict:
            cover[n] = strict

    targets = set()
    for strict in cover.values():
        targets |= strict

    mprs = {n for n in sym if state.neighbors[n].will == WILL_ALWAYS}
    uncovered = set(targets)
    for m in mprs:
        uncovered -= cover.get(m, set())

    # sole providers first
    for t in sorted(uncovered):
        providers = [n for n, c in cover.items() if t in c]
        if len(providers) == 1:
            mprs.add(providers[0])
    for m in mprs:
        uncovered -= cover.get(m, set())

    while uncovered:
        best = None
        best_key = None
        for n in sorted(cover):
            if n in mprs:
                continue
            gain = len(cover[n] & uncovered)
            if gain == 0:
                continue
            key = (state.neighbors[n].will, gain, -n)
            if best_key is None or key > best_key:
                best, best_key = n, key
        if best is None:
            break  # leftovers are uncoverable
        mprs.add(best)
        uncovered -= cover[best]
    return mprs


class TestHoodEqualsReference:
    """The shared advertised set plus stragglers holds exactly the
    {id: expiry} hood that the per-receiver dict of reference_process_hello
    holds, and the MPR and route dirty marks stay exact."""

    IDS = range(10)
    SENDERS = range(1, 6)

    def mutate_sender(self, rng, sender, dropped):
        """Change the sender's links so that its next HELLO drops, re-adds
        or re-flags entries, or leave them as they are. The MPR set stays
        within the symmetric links, as select_mprs keeps it."""
        op = rng.random()
        links = sender.neighbors

        def put(n, sym):
            if n in links:
                links[n].sym = sym
            else:
                links[n] = Neighbor(sym, 1e9, WILL_DEFAULT)
            if not sym:
                sender.mpr_set -= {n}

        if op < 0.35:
            return  # unchanged: make_hello resends the same advertised set
        if op < 0.5 and links:
            n = rng.choice(sorted(links))
            del links[n]
            sender.mpr_set -= {n}
            dropped.append(n)
        elif op < 0.65 and dropped:
            put(dropped.pop(rng.randrange(len(dropped))), True)
        elif op < 0.75:
            n = rng.choice([n for n in self.IDS if n != sender.node_id])
            put(n, rng.random() < 0.6)  # may list the receiver, 0
        elif op < 0.8:
            for n in links:
                put(n, False)  # every entry ASYM
        elif op < 0.9:
            sym = sorted(n for n, nb in links.items() if nb.sym)
            sender.mpr_set = frozenset(rng.sample(sym, rng.randint(0, len(sym))))
        else:  # unused: keeps each seed's draws as they were
            rng.choice([n for n in self.IDS if n != sender.node_id])
            rng.choice((0, 3, 7))
        sender.last_listed = None  # hand edits: make_hello rebuilds its sets

    def check(self, s, twin):
        hoods = {n: full_hood(s, n) for n in s.neighbors}
        twin_hoods = {n: nb.stragglers for n, nb in twin.neighbors.items() if nb.stragglers}
        assert {n: hood for n, hood in hoods.items() if hood} == twin_hoods
        for nb in s.neighbors.values():
            assert s.node_id not in nb.stragglers
            assert not nb.stragglers.keys() & nb.adv
        assert_expiry_order(s)

        def links(state):
            return {
                n: (nb.sym, nb.expiry, nb.will, nb.selector_expiry)
                for n, nb in state.neighbors.items()
            }

        assert links(s) == links(twin)
        assert s.next_expiry <= min(stored_expiries(s), default=math.inf)
        assert ensure_mprs(s) == select_mprs(copy.deepcopy(s))
        assert_providers_fresh(s)
        assert_hello_fresh(s)
        make_hello(s, CFG)  # keeps link sets for the next check to test
        assert ensure_mprs(s) == reference_select_mprs(twin)
        assert ensure_routes(s) == compute_routes(copy.deepcopy(s))

    def make_senders(self, rng):
        """The senders' states, with the ids their links dropped, for
        random_hello."""
        senders = {}
        for k in self.SENDERS:
            links = {n: Neighbor(rng.random() < 0.7, 1e9, WILL_DEFAULT) for n in self.IDS if n != k}
            senders[k] = OlsrNodeState(node_id=k, neighbors=links)
        return senders, {k: [] for k in self.SENDERS}

    def random_hello(self, rng, cfg, senders, dropped):
        """The next HELLO of a random sender whose links mutate_sender changed."""
        k = rng.choice(self.SENDERS)
        self.mutate_sender(rng, senders[k], dropped[k])
        if rng.random() < 0.2:
            rng.choice((0, 3, 7))  # unused: keeps each seed's draws as they were
        # by contract clause (e) a sender's willingness is fixed
        msg = make_hello(senders[k], replace(cfg, willingness=(0, 3, 7, 3, 3)[k - 1]))
        assert msg.mprs <= msg.adv <= msg.listed  # one link code per id
        if rng.random() < 0.15:
            # as a hand-built message: equal sets, fresh objects (frozenset()
            # of a frozenset returns that same object, so copy through a list)
            msg = msg._replace(**{k: frozenset(list(getattr(msg, k))) for k in Hello._fields[2:]})
        return msg

    @pytest.mark.parametrize("seed", range(6))
    def test_random_hello_sequences(self, seed):
        rng = random.Random(3000 + seed)
        cfg = replace(CFG, neighb_hold_time=rng.uniform(5.5, 12.0))
        senders = self.make_senders(rng)
        s, twin = OlsrNodeState(node_id=0), OlsrNodeState(node_id=0)
        now = 0.0
        for _step in range(500):
            due = [exp for exp in lapse_instants(s) if exp > now]
            if due and rng.random() < 0.1:
                now = min(due)  # land exactly on an expiry
            else:
                now += rng.uniform(0.0, 1.5) if rng.random() < 0.9 else rng.uniform(4.0, 10.0)
            if rng.random() < 0.25:
                expire(s, now)
                reference_expire(twin, now)
            else:
                msg = self.random_hello(rng, cfg, *senders)
                process_hello([s], msg, now, cfg)
                reference_process_hello(twin, msg, now, cfg)
            self.check(s, twin)

    @pytest.mark.parametrize("seed", range(4))
    def test_random_frames_with_diverging_receivers(self, seed):
        # each receiver hears a random subset of the frames, so within one
        # frame the receivers store different older advertised sets
        rng = random.Random(4000 + seed)
        cfg = replace(CFG, neighb_hold_time=rng.uniform(5.5, 12.0))
        senders = self.make_senders(rng)
        ids = [n for n in self.IDS if n not in self.SENDERS]
        pairs = [(OlsrNodeState(node_id=n), OlsrNodeState(node_id=n)) for n in ids]
        now = 0.0
        for _step in range(300):
            now += rng.uniform(0.0, 1.5) if rng.random() < 0.9 else rng.uniform(4.0, 10.0)
            msg = self.random_hello(rng, cfg, *senders)
            heard = [pair for pair in pairs if rng.random() < 0.6]
            rng.shuffle(heard)
            for s, twin in heard:
                expire(s, now)
                reference_expire(twin, now)
            process_hello([s for s, _twin in heard], msg, now, cfg)
            for _s, twin in heard:
                reference_process_hello(twin, msg, now, cfg)
            for s, twin in pairs:
                self.check(s, twin)

    def test_views_reused_while_equal(self):
        sender = OlsrNodeState(node_id=1, neighbors={0: nbr(True, 1e9), 2: nbr(False, 1e9)})
        first = make_hello(sender, CFG)
        assert first[2:] == ({0, 2}, set(), {0})
        sender.neighbors[0].will = WILL_ALWAYS  # HELLOs do not carry it
        assert make_hello(sender, CFG).adv is first.adv
        sender.mpr_set = frozenset({0})
        changed = make_hello(sender, CFG)
        assert changed[2:] == ({0, 2}, {0}, {0})
        assert changed.adv is first.adv  # only mprs changed
        sender.neighbors[3] = nbr(False, 1e9)
        sender.last_listed = None  # a hand edit, as process_hello would reset it
        listed = make_hello(sender, CFG)
        assert listed[2:] == ({0, 2, 3}, {0}, {0})
        assert listed.adv is first.adv  # only listed changed
        sender.neighbors[3].sym = True
        sender.last_listed = None
        grown = make_hello(sender, CFG)
        assert grown.adv == {0, 3}
        assert grown.adv is not first.adv
