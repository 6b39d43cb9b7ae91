(** Multi-hop network topologies.

    A topology is a static set of directed links — each a full {!Link}
    with its own capacity, propagation delay, buffer, loss model and
    impairment schedule — identified by dense integer ids. Flows do not
    share "the" bottleneck; each flow follows a {!route}: an ordered
    forward path of link ids its packets traverse hop by hop (queueing,
    dropping and impairments possible at every hop) and a reverse path
    its ACKs retrace (accumulating serialization and propagation delay
    behind each reverse hop's data backlog, but never dropping).

    {!chain} builds a linear chain of [n] forward hops plus [n]
    mirrored reverse links (ids [n..2n-1]), the substrate for
    parking-lot and reverse-path-congestion experiments:
    {!chain_route} is the end-to-end route (the one a flow takes when it
    names none), {!hop_route} the single-hop route of cross-traffic
    entering and leaving at hop boundaries. {!dumbbell} is the one-hop
    chain. *)

type t
(** Immutable topology specification; instantiated by the {!Runner}. *)

type route
(** A flow's static path through a topology. *)

val dumbbell : Link.config -> t
(** The single-bottleneck scenario: [chain [cfg]], i.e. forward link 0
    and its mirrored reverse link 1, which carries the configuration's
    ACK knobs for every flow's ACKs. *)

val chain : ?rev:Link.config list -> Link.config list -> t
(** [chain fwd] builds a linear chain whose forward hops are [fwd]
    (link ids [0..n-1] in order) and whose reverse-direction links are
    [rev] (ids [n..2n-1], reverse of hop [j] at id [n + j]); [rev]
    defaults to mirroring [fwd] and must have the same length. Raises
    [Invalid_argument] on an empty chain or a length mismatch. *)

val make : Link.config list -> t
(** Arbitrary topology from a list of directed links (ids in list
    order); routes are built explicitly with {!route}. Raises
    [Invalid_argument] on an empty list. *)

val with_fluid : ?buffer_share:float -> t -> link:int -> Aggregate.cls list -> t
(** Functional update attaching fluid background classes to one link
    (see {!Aggregate}): the {!Runner} instantiates a fresh aggregate on
    that link at [create_topo] time. [buffer_share] overrides the
    aggregate's fluid buffer bound. Raises [Invalid_argument] on a link
    id outside the topology, an empty class list, a link that already
    carries classes, or specs {!Aggregate.create} rejects. *)

val has_fluid : t -> int -> bool

val instantiate_fluid : t -> int -> Aggregate.t option
(** Fresh mutable aggregate for link [i]'s class specs ([None] when the
    link carries no fluid). Each call builds independent state, so
    every {!Runner} instantiation owns its own integrator. *)

val fluid_flows : t -> int
(** Total background flow population across all links' classes. *)

val route : t -> fwd:int list -> rev:int list -> route
(** A route from explicit link-id paths. [fwd] must be non-empty; [rev]
    may be empty (ACKs then arrive the instant delivery completes).
    Raises [Invalid_argument] on an empty forward path or an id outside
    the topology. *)

val chain_route : t -> route
(** End-to-end route of a {!chain}: forward hops [0..n-1], ACKs over
    the reverse links in retracing order ([2n-1..n]). Raises
    [Invalid_argument] if the topology was not built by {!chain}. *)

val default_route : t -> route option
(** The route a flow takes when it names none: {!chain_route} on a
    {!chain} (or {!dumbbell}), [None] on a topology built by {!make}. *)

val hop_route : t -> hop:int -> route
(** Single-hop route of cross traffic crossing only hop [hop] of a
    {!chain} (forward link [hop], reverse link [n + hop]). Raises
    [Invalid_argument] on a non-chain topology or hop out of range. *)

val num_links : t -> int
val link_config : t -> int -> Link.config

val chain_hops : t -> int
(** Number of forward hops if built by {!chain}, 0 otherwise. *)

val route_fwd : route -> int array
(** Forward link ids, in traversal order (a copy). *)

val route_rev : route -> int array
(** Reverse link ids, in ACK traversal order (a copy). *)
