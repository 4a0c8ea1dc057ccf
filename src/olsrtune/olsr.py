"""OLSR node state machine (RFC 3626 subset).

Implements the pieces of the protocol that the tuning study exercises:
link sensing and neighborhood discovery through HELLO messages, greedy
multipoint-relay (MPR) selection, topology dissemination through TC
messages with duplicate suppression, and minimum-hop routing-table
calculation. Behaviour is parameterized by the eight standard knobs in
OlsrConfig.

A simulator drives a node only through five entries. Each drops lapsed
state (expire) first, then follows RFC 3626 section 3.4's order:
next_hello and next_tc build the node's messages (next_tc gives None
while no neighbour selected the node as MPR), receive_hello applies one
HELLO frame to the states of all the nodes that heard it, in one
process_hello call, receive_tc drops a TC heard over a non-symmetric
link, applies it, then records its key and returns the copy to relay or
None, and routes(state, now) gives the routing table. receive_tc
returns None at once, before expire, for a TC whose (originator, seq_no)
key equals last_tc, the key of the latest TC the node processed: RFC
3626 section 3.4 processes a message only once, and by (d) a duplicate
can only be a copy of that latest TC. This is the only duplicate check.
The functions the entries call look one another up as module globals
and never expire on their own.

The entries keep a contract, and the functions they call rely on it:

(a) for a given state, now never decreases and the config is fixed, so
    a dict that gains entries only at now + a hold time is in expiry order.
    neighbors is one: process_hello moves the sender's record to the end,
    at its new link expiry. Nothing reads neighbors in an order-dependent
    way: compute_routes and next_tc sort, make_hello builds sets, and
    select_mprs counts gains and breaks every tie by id;
(b) a clean mpr_set is a subset of the symmetric neighbours: select_mprs
    picks only symmetric ones, a link stays symmetric until it expires,
    and that expiry marks the MPRs dirty;
(c) no node hears its own frame, and no topology record or straggler
    dict holds the owner's id: process_tc and process_hello filter it out;
(d) a node receives each (originator, seq_no) TC at one instant only,
    and an originator's seq_no only rises: the simulator's flood delivers
    every copy of a TC at the instant it is sent, and make_tc raises
    tc_seq on every TC. So one key per node is the whole duplicate set,
    and a TC always replaces its originator's topology record;
(e) every node of a run advertises the run's willingness: the simulator
    gives every node the one config. So a Neighbor's will stays the
    value its link's first HELLO carried, and a lapsed link's new record
    takes the next HELLO's value.

The parameters' names, bounds, defaults and integer flag are defined
once, in PARAMS; GENE_NAMES, the config checks, the search space, the
genome codec and the JSON config codec all derive from it. The rule for
a legal genome is defined once, in ParamSpace.clip.

Nodes are single-interface, so no MID messages are generated and
mid_hold_time is inert: it has no protocol effect. By (d) no duplicate
is heard after the instant its TC was sent, so dup_hold_time has no
protocol effect either. Both stay in the genome so that the eight tuned
parameters match the paper's.

Two RFC 3626 rules are left out, and both bear on routes. Counts are
from multihop_data's first scenario in the benchmark (scenario seed 10,
simulation seed 0), over data sends to a node in a willing symmetric
neighbour's strict hood:

- two-hop routes from HELLO state (section 10, step 3, routes every
  two-hop neighbour in 2 hops through a willing symmetric neighbour):
  compute_routes reads only symmetric links and TC records, so a two-hop
  neighbour gets a route only if some TC lists it. Under the RFC config
  2,463 of 26,458 such sends used a route longer than 2 hops; under the
  best config, of 29,766, 823 had no route and 3,301 a longer one;
- LOST_LINK (sections 6.2 and 8.2.1): a link that stops being symmetric
  is not advertised as lost, so no receiver drops the two-hop tuple at
  once. An id that drops out of a neighbour's HELLO stays in its
  stragglers until the neighbour's previous link expiry.

The MPR set and the routing table are caches of the pure functions
select_mprs(state) and compute_routes(state), recomputed only when read
after an input changed. mpr_set and routing_table are valid only while
clean, so readers go through ensure_mprs and ensure_routes.

Each message kind is one type holding only what its receivers read. A
Hello goes one hop and is never forwarded (RFC 3626 section 6): it holds
its sender's willingness and the three link sets its receivers read
(every neighbour the sender hears, its symmetric neighbours, and those
it selected as MPR), which RFC 3626 section 6.1 encodes as one link code
per address. Only a Tc floods, relayed by MPRs.

Each neighbour is one Neighbor record, dropped as a whole when its link
expires (RFC 3626 section 4 keeps link, neighbour and two-hop tuples per
neighbour too). Its two-hop hood is stored in two parts:

- adv is the frozenset of symmetric ids in the neighbour's latest HELLO,
  shared with every other receiver of that HELLO and possibly holding
  our own id. Its entries expire with the link, at expiry;
- stragglers holds ids an older HELLO listed and the latest one does
  not, each with the expiry of the last HELLO that listed it. It never
  holds our own id or an id of adv, so an id it gains is a new key, at
  the link's previous expiry: by (a) the dict is in expiry order.

A hood is the union of the two without our own id (_strict_hood).
make_hello keeps the listed and advertised sets of its latest HELLO, in
last_listed and last_adv, and sends the same objects again while
last_listed is not None. Only a link that is added, turns symmetric or
lapses changes a node's neighbour keys or its symmetric set, and three
sites reset last_listed to None: process_hello where it creates a
Neighbor and where a link turns symmetric, and expire where any link
lapses. make_hello then builds both sets afresh, and still sends the
previous advertised object while it is equal, so a receiver that
already stores the sender's advertised set does no hood work at all. A
fresh or hand-built state starts at None; a caller that edits neighbors
by hand after a HELLO resets last_listed. The other receivers of a frame
mostly store one and the same older set, so process_hello computes the
ids gained and lost once per stored set, not once per receiver. Since
stragglers hold no id of the stored set, the ids of adv to drop from
them are among the gained ones.

select_mprs reads only the symmetric neighbours, their willingness and
their strict hoods (hood ids that are not our own and not symmetric
neighbours), so MPRs are marked dirty exactly when:

- a link turns symmetric, or a symmetric link expires;
- a symmetric neighbour's hood gains an id that is not our own and not
  a symmetric neighbour;
- expire drops such an id from a symmetric neighbour's stragglers.

select_mprs reads the coverage from providers, which maps each strict
two-hop id to the willing symmetric neighbours (the providers) whose
hood holds it, and runs the greedy target by target over these lists.
Next to it, cover maps each provider to the number of strict ids it
provides; it holds no count of 0, and every change to the lists
updates it with them. near holds our own id and the symmetric
neighbours, the ids that are not strict, so an edit takes a strict
hood as one set difference. always holds the symmetric neighbours of
willingness WILL_ALWAYS, the base of every MPR set. _join keeps all
four exact as a link turns symmetric, and the constructor builds them
from the neighbour records it is given by joining each symmetric one
to an empty state, so a hand-built state passes its records to it.
From then on they stay exact, changed only where MPRs are marked dirty:

- process_hello appends a willing sender to the list of each strict id
  its hood gains, and expire takes a willing neighbour off the list of
  each strict id its stragglers drop;
- a link turning symmetric (_join) drops the sender's id from the map,
  since it is no longer strict, then a willing sender is added to the
  list of each strict id in its hood, and a WILL_ALWAYS sender to always;
- a symmetric link's lapse takes a willing neighbour off every list and
  out of always, and its id turns strict, provided by each willing
  symmetric neighbour whose adv or stragglers hold it.

compute_routes reads only the symmetric neighbours and the destination
sets of routed originators. Next to routing_table it keeps each route's
last hop in route_last_hop (a neighbour is its own last hop). Routes are
marked dirty when a link turns symmetric or a symmetric link expires,
and, while they are clean, when a change to originator o's destination
set (process_tc's new set, expire's lapsed record) can change the table:

- o is routed and an added destination has no route, a route longer
  than hops(o) + 1, or one of that length whose (next_hop, last_hop)
  key is larger than (next_hop(o), o);
- a removed or lapsed destination's last hop is o.

Any other change only adds or drops a candidate that loses at its hop
count, or sits in the record of an unrouted originator, which
compute_routes never reads. An asymmetric link or a lapsed MPR
selection marks neither MPRs nor routes.

A topology record is (dests, expiry): one TC's destinations share its
expiry. process_tc moves the originator's record to the end, so by (a)
the topology dict is in expiry order too, and expire drops lapsed links
and records from the front of their dicts. The stragglers one HELLO
makes share the link's previous expiry: process_hello pushes each such
batch on straggler_batches, a heap of (expiry, neighbour), and expire
pops the lapsed batches and drops lapsed stragglers, from the front, of
those neighbours only. A batch whose ids went before it lapsed (listed
again, or with their link) leaves a stale entry: its neighbour is gone,
or the head of its straggler dict lies past the entry. expire pops stale
entries off the top before it reads the top as the straggler bound, so
next_expiry is exactly the earliest stored expiry. A neighbour's
selector_expiry, that of its latest HELLO that named us as MPR, never
exceeds its link's expiry, so expire leaves it alone: readers compare
it with now.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from heapq import heappop, heappush
from itertools import chain
from typing import ClassVar, NamedTuple

from .errors import ConfigurationError, InputError

__all__ = [
    "Param",
    "PARAMS",
    "OlsrConfig",
    "ParamSpace",
    "OlsrNodeState",
    "Neighbor",
    "Hello",
    "Tc",
    "GENE_NAMES",
    "rfc_default",
    "default_param_space",
    "decode_genome",
    "encode_config",
    "hello_emission_interval",
    "config_to_dict",
    "config_from_dict",
    "next_hello",
    "receive_hello",
    "next_tc",
    "receive_tc",
    "routes",
    "make_hello",
    "make_tc",
    "process_hello",
    "select_mprs",
    "ensure_mprs",
    "process_tc",
    "should_forward",
    "compute_routes",
    "ensure_routes",
    "expire",
]

WILL_NEVER = 0
WILL_DEFAULT = 3
WILL_ALWAYS = 7

_NO_IDS = frozenset()

HELLO_HEADER_BYTES = 24
HELLO_ENTRY_BYTES = 8
TC_HEADER_BYTES = 20
TC_ENTRY_BYTES = 4


class Param(NamedTuple):
    """One tunable parameter: its name, search bounds, RFC 3626 default,
    and whether it takes integer values."""

    name: str
    lo: float
    hi: float
    rfc: float
    integer: bool = False


# The single definition of the eight parameters, one row per gene in
# genome order. Every bound, default and integer flag below derives from it.
PARAMS = (
    Param("hello_interval", 2.0, 15.0, 2.0),
    Param("refresh_interval", 2.0, 15.0, 2.0),
    Param("tc_interval", 4.0, 35.0, 5.0),
    Param("willingness", 0.0, 7.0, 3.0, integer=True),
    Param("neighb_hold_time", 5.5, 45.0, 6.0),
    Param("mid_hold_time", 10.5, 90.0, 15.0),
    Param("top_hold_time", 10.5, 90.0, 15.0),
    Param("dup_hold_time", 10.5, 90.0, 30.0),
)

GENE_NAMES = tuple(p.name for p in PARAMS)


@dataclass(frozen=True)
class OlsrConfig:
    """The eight tunable OLSR parameters, each within its standard range.

    Fields are declared in genome order (GENE_NAMES); bounds come from PARAMS.
    """

    hello_interval: float
    refresh_interval: float
    tc_interval: float
    willingness: int
    neighb_hold_time: float
    mid_hold_time: float
    top_hold_time: float
    dup_hold_time: float

    def __post_init__(self):
        for p in PARAMS:
            value = getattr(self, p.name)
            if not math.isfinite(value):
                raise ConfigurationError(f"{p.name} is not finite")
            if not p.lo <= value <= p.hi:
                raise ConfigurationError(f"{p.name}={value} outside [{p.lo}, {p.hi}]")
            if p.integer and not isinstance(value, int):
                raise ConfigurationError(f"{p.name} must be an integer")


def rfc_default() -> OlsrConfig:
    """Standard parameter values: hold times are 3x their message interval."""
    space = default_param_space()
    return decode_genome(space.rfc, space)


@dataclass(frozen=True)
class ParamSpace:
    """Per-gene search bounds, the standard reference vector and the
    integer genes, all fixed by PARAMS."""

    bounds: ClassVar[tuple] = tuple((p.lo, p.hi) for p in PARAMS)  # (z_min, z_max) per gene
    rfc: ClassVar[tuple] = tuple(p.rfc for p in PARAMS)  # reference value per gene
    integer_genes: ClassVar[tuple] = tuple(k for k, p in enumerate(PARAMS) if p.integer)
    n_genes: ClassVar[int] = len(PARAMS)

    def clip(self, genes) -> tuple:
        """The one rule for a legal genome: clamp every gene to its bounds
        and round the integer genes half up. Idempotent."""
        out = []
        for k, (g, (lo, hi)) in enumerate(zip(genes, self.bounds)):
            if k in self.integer_genes:
                out.append(float(min(max(math.floor(g + 0.5), lo), hi)))
            else:
                out.append(min(max(g, lo), hi))
        return tuple(out)


def default_param_space() -> ParamSpace:
    return ParamSpace()


def decode_genome(genes, space: ParamSpace) -> OlsrConfig:
    """Map an 8-gene vector to a valid config through space.clip."""
    if len(genes) != space.n_genes:
        raise ConfigurationError(f"expected {space.n_genes} genes, got {len(genes)}")
    genes = [float(g) for g in genes]
    for k, g in enumerate(genes):
        if not math.isfinite(g):
            raise ConfigurationError(f"gene {k} is not finite")
    return OlsrConfig(
        **{p.name: int(g) if p.integer else g for p, g in zip(PARAMS, space.clip(genes))}
    )


def encode_config(config: OlsrConfig) -> tuple:
    return tuple(float(getattr(config, name)) for name in GENE_NAMES)


def hello_emission_interval(config: OlsrConfig) -> float:
    """Effective HELLO period: every link must be re-advertised within
    refresh_interval, so the faster of the two intervals wins."""
    return min(config.hello_interval, config.refresh_interval)


def config_to_dict(config: OlsrConfig) -> dict:
    return {name: getattr(config, name) for name in GENE_NAMES}


def config_from_dict(doc) -> OlsrConfig:
    """Read a config document: a JSON object holding every PARAMS name.

    Raises InputError for a document that is not an object, a value that
    is not a JSON number (strings and booleans included) or exceeds the
    float range, or a non-whole value for an integer parameter;
    ConfigurationError for a missing field or a value that is not finite
    or lies out of range.
    """
    if not isinstance(doc, dict):
        raise InputError(f"config document must be a JSON object, not {type(doc).__name__}")
    values = {}
    for p in PARAMS:
        if p.name not in doc:
            raise ConfigurationError(f"config document missing field {p.name!r}")
        v = doc[p.name]
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise InputError(f"config field {p.name} must be a number, got {v!r}")
        try:
            x = float(v)
        except OverflowError:
            raise InputError(f"config field {p.name} exceeds the float range") from None
        if p.integer and not x.is_integer():
            raise InputError(f"config field {p.name} must be an integer, got {v!r}")
        values[p.name] = int(x) if p.integer else x
    return OlsrConfig(**values)


class Hello(NamedTuple):
    """A HELLO, one hop and never forwarded. Its three link sets hold the
    RFC 3626 link codes, one set per question its receivers ask: is my
    link to the sender symmetric (listed), did the sender pick me as MPR
    (mprs), and which nodes are two hops away through it (adv). An id in
    listed but not adv is ASYM, in adv but not mprs is SYM, in mprs is MPR."""

    sender: int
    will: int  # the sender's willingness
    listed: frozenset  # every neighbour the sender hears
    mprs: frozenset  # symmetric neighbours the sender selected as MPR
    adv: frozenset  # symmetric neighbours

    @property
    def size(self) -> int:  # bytes
        return HELLO_HEADER_BYTES + HELLO_ENTRY_BYTES * len(self.listed)


class Tc(NamedTuple):
    """A TC as carried on the air: the originator's MPR selectors, relayed
    by MPRs, each relay sending a copy with itself as sender."""

    originator: int
    sender: int
    seq_no: int
    selectors: tuple  # node ids, sorted

    @property
    def size(self) -> int:  # bytes
        return TC_HEADER_BYTES + TC_ENTRY_BYTES * len(self.selectors)


@dataclass(slots=True)
class Neighbor:
    """One neighbour's link, willingness, two-hop hood and MPR selection."""

    sym: bool
    expiry: float  # of the link, and of every id in adv
    will: int  # advertised willingness, fixed for the link's life by (e)
    # non-ASYM ids of its latest HELLO, shared with the other receivers
    adv: frozenset = _NO_IDS
    # id an older HELLO listed and the latest one does not -> expiry
    stragglers: dict = field(default_factory=dict)
    # of the latest HELLO that selected us as MPR; selected while > now
    selector_expiry: float = -math.inf


@dataclass
class OlsrNodeState:
    """Protocol state owned by a single node. After construction only
    the five entries edit neighbors: a hand edit leaves the MPR coverage
    state (providers, cover, near, always) stale."""

    node_id: int
    neighbors: dict = field(default_factory=dict)  # id -> Neighbor
    mpr_set: frozenset = _NO_IDS
    mprs_dirty: bool = False
    # originator (last hop) -> (frozenset of dests, expiry), never empty
    topology: dict = field(default_factory=dict)
    # (originator, seq_no) of the latest TC processed
    last_tc: tuple | None = None
    # dest -> (next_hop, hop_count)
    routing_table: dict = field(default_factory=dict)
    # dest -> the last hop of its route, valid with routing_table
    route_last_hop: dict = field(default_factory=dict)
    routes_dirty: bool = False
    # strict two-hop id -> the willing symmetric neighbours whose hood
    # holds it
    providers: dict = field(init=False)
    # provider -> the number of strict ids it provides, never 0
    cover: dict = field(init=False)
    # our own id and the symmetric neighbours, the ids that are not strict
    near: set = field(init=False)
    # the symmetric neighbours of willingness WILL_ALWAYS, every MPR set's base
    always: set = field(init=False)
    # heap of (expiry, neighbour), one entry per batch of stragglers
    straggler_batches: list = field(default_factory=list)
    # listed set of the latest HELLO made; None once a link is added,
    # turns symmetric or lapses, and in a fresh or hand-built state
    last_listed: frozenset | None = None
    # advertised set of the latest HELLO made
    last_adv: frozenset = _NO_IDS
    tc_seq: int = 0
    # conservative lower bound on the earliest stored expiry; lets
    # expire() return in O(1) when nothing can have lapsed
    next_expiry: float = math.inf

    def __post_init__(self):
        _build_providers(self)


def make_hello(state: OlsrNodeState, config: OlsrConfig) -> Hello:
    """Build this node's next HELLO, advertising all current links. Its
    listed and advertised sets are the previous HELLO's objects while no
    link was added, turned symmetric or lapsed (last_listed is not None);
    after such a change they are built afresh, and the advertised set is
    still the previous object while equal."""
    listed = state.last_listed
    if listed is None:
        nbrs = state.neighbors
        listed = state.last_listed = frozenset(nbrs)
        adv = frozenset([n for n, nb in nbrs.items() if nb.sym])
        if adv != state.last_adv:
            state.last_adv = adv
    return Hello(state.node_id, config.willingness, listed, ensure_mprs(state), state.last_adv)


def make_tc(state: OlsrNodeState, selectors: tuple) -> Tc:
    """Build this node's next TC, advertising its MPR selectors, sorted."""
    state.tc_seq += 1
    return Tc(state.node_id, state.node_id, state.tc_seq, selectors)


def process_hello(states: list, msg: Hello, now: float, config: OlsrConfig) -> None:
    """Apply one received HELLO frame to each of its receivers' states:
    link sensing, two-hop discovery, MPR bookkeeping. A link turns
    symmetric once the sender lists the receiver. Marks MPRs and routes
    dirty, and keeps the MPR provider map and the straggler batches, as
    the module docstring sets out.

    The receivers share the frame's set differences: gained (adv less the
    stored set) and lost (the stored set less adv) are computed once per
    run of receivers storing the same object. The ids of adv to drop from
    the stragglers are exactly the gained ones there: stragglers never
    hold an id of the stored set, so adv's ids among them are not in it.
    Receivers whose old link expiry is equal share one batch entry."""
    sender, own_will, listed, mprs, adv = msg
    expiry = now + config.neighb_hold_time
    last_old = gained = lost = batch = None
    for state in states:
        me = state.node_id
        if expiry < state.next_expiry:
            state.next_expiry = expiry
        nbrs = state.neighbors
        nb = nbrs.pop(sender, None)
        if nb is None:
            nb = Neighbor(False, expiry, own_will)
            state.last_listed = None
        nbrs[sender] = nb  # last: by (a) the links are in expiry order
        was_sym = nb.sym
        old_expiry = nb.expiry
        sym = nb.sym = was_sym or me in listed
        nb.expiry = expiry
        if me in mprs:
            nb.selector_expiry = expiry

        # the advertised set replaces the old one, whose ids the new one
        # no longer lists stay as stragglers at the old link expiry
        old = nb.adv
        if old is not adv:
            if old is not last_old:
                last_old, gained, lost = old, adv - old, old - adv
            nb.adv = adv
            hood = nb.stragglers
            if was_sym:
                # a willing sender provides every strict id; the dirty mark
                # needs only the first
                willing = nb.will != WILL_NEVER
                if willing or not state.mprs_dirty:
                    providers, cover, near = state.providers, state.cover, state.near
                    for t in gained:
                        if t not in near and t not in hood:
                            state.mprs_dirty = True
                            if not willing:
                                break
                            providers.setdefault(t, []).append(sender)
                            cover[sender] = cover.get(sender, 0) + 1
            if hood:
                for t in gained:
                    if t in hood:
                        del hood[t]
            size = len(hood)
            for t in lost:
                if t != me:
                    hood[t] = old_expiry
            if len(hood) != size:
                if batch is None or batch[0] != old_expiry:
                    batch = (old_expiry, sender)
                heappush(state.straggler_batches, batch)

        if sym and not was_sym:
            state.mprs_dirty = True
            state.routes_dirty = True
            state.last_listed = None
            _join(state, sender, nb)


def _join(state: OlsrNodeState, n: int, nb: Neighbor) -> None:
    """Keep the coverage state exact as neighbour n's link nb turns
    symmetric: n's id is strict no more, a WILL_ALWAYS n joins the base,
    and a willing n provides the strict ids of its hood."""
    state.near.add(n)
    if nb.will == WILL_ALWAYS:
        state.always.add(n)
    cover = state.cover
    for p in state.providers.pop(n, ()):
        if cover[p] == 1:
            del cover[p]
        else:
            cover[p] -= 1
    if nb.will != WILL_NEVER:
        _provide(state, n, _strict_hood(nb, state.near))


def _strict_hood(nb: Neighbor, near: set) -> frozenset:
    """A neighbour's hood, its advertised set plus its stragglers, less
    `near`: our own id and the symmetric neighbours."""
    hood = nb.adv.difference(near)
    if nb.stragglers:
        hood = hood.union(nb.stragglers.keys() - near)
    return hood


def _provide(state: OlsrNodeState, n: int, ids) -> None:
    """Append provider n to the list of each strict id in `ids`, none of
    which lists it yet, and add their number to its count."""
    providers = state.providers
    for t in ids:
        providers.setdefault(t, []).append(n)
    if ids:
        state.cover[n] = state.cover.get(n, 0) + len(ids)


def _unprovide(state: OlsrNodeState, n: int, ids) -> None:
    """Take provider n off the list of each strict id in `ids`, deleting a
    list it empties, and their number off its count."""
    providers = state.providers
    for t in ids:
        listed = providers[t]
        if len(listed) == 1:
            del providers[t]
        else:
            listed.remove(n)
    if ids:
        cover = state.cover
        left = cover[n] - len(ids)
        if left:
            cover[n] = left
        else:
            del cover[n]


def _build_providers(state: OlsrNodeState) -> None:
    """Set the provider map, the coverage counts, the non-strict ids and
    the willingness-7 base afresh from the neighbour records, joining
    each symmetric link to an empty state."""
    state.providers, state.cover, state.near, state.always = {}, {}, {state.node_id}, set()
    for n, nb in state.neighbors.items():
        if nb.sym:
            _join(state, n, nb)


def select_mprs(state: OlsrNodeState) -> frozenset:
    """Greedy MPR selection over the strict two-hop neighborhood.

    Willingness-7 neighbors are always chosen and willingness-0 ones
    never; remaining two-hop nodes are covered by first taking sole
    providers, then repeatedly the candidate with highest willingness,
    then widest uncovered coverage, then lowest id. Reads the coverage
    from state.providers, with state.cover, and starts from the kept
    willingness-7 base, state.always. A round's gain is a provider's
    number of uncovered ids: its count in state.cover while the base
    covers no id, else a count over the uncovered lists. A pick whose
    gain equals the number of uncovered lists is in every one of them,
    since no provider appears twice in a list, so the loop stops there
    without filtering. The set is stored frozen, once per selection, so
    every HELLO until the next selection sends it as it is.
    """
    nbrs = state.neighbors
    providers = state.providers
    mprs = set(state.always)
    # sole providers
    mprs.update([ids[0] for ids in providers.values() if len(ids) == 1])
    # the provider lists of the ids no MPR covers yet
    uncovered = [ids for ids in providers.values() if mprs.isdisjoint(ids)]
    # every provider's gain is its count until the base or a pick covers an id
    gain = state.cover if len(uncovered) == len(providers) else None
    while uncovered:
        if gain is None:
            gain = Counter(chain.from_iterable(uncovered))
        key = max([(nbrs[n].will, g, -n) for n, g in gain.items()])
        best = -key[2]
        mprs.add(best)
        if key[1] == len(uncovered):
            break  # the pick is in every list left
        uncovered = [ids for ids in uncovered if best not in ids]
        gain = None

    state.mpr_set = mprs = frozenset(mprs)
    state.mprs_dirty = False
    return mprs


def ensure_mprs(state: OlsrNodeState) -> frozenset:
    if state.mprs_dirty:
        return select_mprs(state)
    return state.mpr_set


def process_tc(state: OlsrNodeState, msg: Tc, now: float, config: OlsrConfig) -> None:
    """Apply a received TC: its destinations replace the originator's
    (dest, last_hop=originator) tuples, and an empty set drops them. By
    (d) the TC is newer than the record it replaces; its record goes last."""
    orig = msg.originator
    me = state.node_id
    if orig == me:
        return
    topology = state.topology
    dests = frozenset([dest for dest in msg.selectors if dest != me])
    rec = topology.pop(orig, None)
    old = _NO_IDS if rec is None else rec[0]
    if not state.routes_dirty and dests != old:
        state.routes_dirty = _routes_change(state, orig, dests - old, old - dests)
    if dests:
        expiry = now + config.top_hold_time
        if expiry < state.next_expiry:
            state.next_expiry = expiry
        topology[orig] = (dests, expiry)


def _routes_change(state: OlsrNodeState, orig: int, added, removed) -> bool:
    """Whether the clean routing table can change when originator orig's
    destination set gains `added` and loses `removed`, by the module
    docstring's rule."""
    last_hop = state.route_last_hop
    for dest in removed:
        if last_hop.get(dest) == orig:
            return True
    table = state.routing_table
    route = table.get(orig)
    if route is None:
        return False  # compute_routes never reads an unrouted record
    hops = route[1] + 1
    key = (route[0], orig)
    for dest in added:
        cur = table.get(dest)
        if cur is None or cur[1] > hops or (cur[1] == hops and (cur[0], last_hop[dest]) > key):
            return True
    return False


def should_forward(state: OlsrNodeState, sender: int, now: float) -> bool:
    """Default forwarding rule: relay only if the sender, a neighbour,
    selected this node as MPR in a HELLO that has not lapsed."""
    return state.neighbors[sender].selector_expiry > now


def compute_routes(state: OlsrNodeState) -> dict:
    """Minimum-hop routing table over symmetric links plus topology
    tuples; ties go to the lowest next_hop id, then lowest last hop.
    Stores each route's last hop in route_last_hop."""
    routes = {n: (n, 1) for n in sorted(n for n, nb in state.neighbors.items() if nb.sym)}
    last_hops = {n: n for n in routes}
    frontier = list(routes)
    hops = 1
    while frontier:
        candidates = {}
        for last_hop in frontier:
            rec = state.topology.get(last_hop)
            if rec is None:
                continue
            next_hop = routes[last_hop][0]
            for dest in rec[0]:
                if dest in routes:
                    continue
                cand = (next_hop, last_hop)
                cur = candidates.get(dest)
                if cur is None or cand < cur:
                    candidates[dest] = cand
        hops += 1
        frontier = []
        for dest in sorted(candidates):
            next_hop, last_hops[dest] = candidates[dest]
            routes[dest] = (next_hop, hops)
            frontier.append(dest)
    state.routing_table = routes
    state.route_last_hop = last_hops
    state.routes_dirty = False
    return routes


def ensure_routes(state: OlsrNodeState) -> dict:
    if state.routes_dirty:
        return compute_routes(state)
    return state.routing_table


def expire(state: OlsrNodeState, now: float) -> None:
    """Drop every entry whose expiry is <= now and mark MPRs or routes
    dirty if an input of theirs went. O(1) when the earliest stored
    expiry is still ahead; otherwise drops lapsed links and topology
    records from the front of their dicts, and lapsed stragglers of the
    neighbours whose batches lapsed."""
    if now < state.next_expiry:
        return

    nbrs = state.neighbors
    lapsed = []
    for n, nb in nbrs.items():
        if nb.expiry > now:
            break
        lapsed.append(n)
    if lapsed:
        state.last_listed = None
    for n in lapsed:
        nb = nbrs.pop(n)
        if nb.sym:
            state.mprs_dirty = True
            state.routes_dirty = True
            state.near.discard(n)
            state.always.discard(n)
            if nb.will != WILL_NEVER:
                _unprovide(state, n, _strict_hood(nb, state.near))
            # n's id turns strict, provided by each willing symmetric
            # neighbour whose hood holds it
            ids = [p for p, pb in nbrs.items()
                   if pb.sym and pb.will != WILL_NEVER and (n in pb.adv or n in pb.stragglers)]
            if ids:
                state.providers[n] = ids
                cover = state.cover
                for p in ids:
                    cover[p] = cover.get(p, 0) + 1

    batches = state.straggler_batches
    while batches and batches[0][0] <= now:
        n = heappop(batches)[1]
        nb = nbrs.get(n)
        if nb is None:
            continue
        hood = nb.stragglers
        dead = []
        for t, exp in hood.items():
            if exp > now:
                break
            dead.append(t)
        for t in dead:
            del hood[t]
        if nb.sym:
            willing = nb.will != WILL_NEVER
            for t in dead:
                if t not in state.near:
                    state.mprs_dirty = True
                    if not willing:
                        break
                    _unprovide(state, n, (t,))

    # drop stale entries, whose batch went before it lapsed (re-listed, or
    # its link lapsed), so the first entry's expiry is the straggler bound
    while batches:
        exp, n = batches[0]
        nb = nbrs.get(n)
        if nb is not None and next(iter(nb.stragglers.values()), math.inf) == exp:
            break
        heappop(batches)
    bound = batches[0][0] if batches else math.inf
    if nbrs:
        bound = min(bound, next(iter(nbrs.values())).expiry)

    topology = state.topology
    lapsed = []
    for orig, (_dests, exp) in topology.items():
        if exp > now:
            if exp < bound:
                bound = exp
            break
        lapsed.append(orig)
    for orig in lapsed:
        dests = topology.pop(orig)[0]
        if not state.routes_dirty:
            state.routes_dirty = _routes_change(state, orig, (), dests)

    state.next_expiry = bound


def next_hello(state: OlsrNodeState, now: float, config: OlsrConfig) -> Hello:
    expire(state, now)
    return make_hello(state, config)


def receive_hello(states: list, msg: Hello, now: float, config: OlsrConfig) -> None:
    """Apply one HELLO frame to the states of every node that heard it.
    Their states are disjoint, so expiring them all first is the same as
    expiring each just before its own reception."""
    for state in states:
        # expire's own first test, inline: most receivers have nothing lapsed
        if now >= state.next_expiry:
            expire(state, now)
    process_hello(states, msg, now, config)


def next_tc(state: OlsrNodeState, now: float, config: OlsrConfig) -> Tc | None:
    expire(state, now)
    selectors = tuple(sorted([n for n, nb in state.neighbors.items() if nb.selector_expiry > now]))
    return make_tc(state, selectors) if selectors else None


def receive_tc(state: OlsrNodeState, msg: Tc, now: float, config: OlsrConfig) -> Tc | None:
    """The copy of `msg` to relay, or None; a TC already processed (its
    key is last_tc) or heard over a link that is not symmetric is dropped
    unprocessed (RFC 3626 sections 3.4 and 9.5)."""
    key = (msg.originator, msg.seq_no)
    if key == state.last_tc:
        return None
    expire(state, now)
    nb = state.neighbors.get(msg.sender)
    if nb is None or not nb.sym:
        return None
    process_tc(state, msg, now, config)
    state.last_tc = key
    if should_forward(state, msg.sender, now):
        return msg._replace(sender=state.node_id)
    return None


def routes(state: OlsrNodeState, now: float) -> dict:
    expire(state, now)
    return ensure_routes(state)
