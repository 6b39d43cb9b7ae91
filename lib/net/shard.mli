(** Sharded intra-trial event loops over bottleneck-independent
    components.

    A single trial's event loop is inherently serial; but flows whose
    routes share no link can never contend, so the topology's
    link-sharing graph partitions into independent components. This
    module plans that partition (union-find over the flow routes),
    instantiates one {!Runner} per shard — each over the {e full}
    topology, with the trial seed — and drives them in epoch windows,
    optionally fanning the windows across domains with a
    {!Proteus_parallel.Pool}.

    {b Determinism.} Results are byte-identical for {e any} shard count
    (and any pool size), by construction:

    - every shard instantiates the full topology, so per-link RNG
      streams (split from the seed in link-id order) are identical
      everywhere;
    - flow specs are visited in global order in every shard — the owner
      adds the flow, the others burn the one root-RNG split an
      [add_flow] would have drawn — so per-flow streams are identical;
    - event sequence numbers are partitioned affinely
      ([Sim.set_seq_partition]: shard [s] of [n] draws [s, s+n, ...]),
      globally unique, and order-preserving within a shard, so the
      merged [(time, seq)] schedule is observationally equal to the
      single-shard one (cross-shard events touch disjoint state);
    - the epoch barrier — all shards advance to the same horizon before
      any proceeds ({!run}) — only adds the cross-domain happens-before
      edge; it never influences results. *)

type spec
(** A flow specification: everything [Runner.add_flow] takes, held
    until planning assigns the flow to a shard. *)

val spec :
  ?start:float ->
  ?stop:float ->
  ?size_bytes:int ->
  ?route:Topology.route ->
  label:string ->
  Sender.factory ->
  spec
(** Mirror of [Runner.add_flow]'s arguments (see {!Runner}). [route]
    defaults to {!Topology.default_route} and is required on a topology
    built by {!Topology.make}; a missing one raises [Invalid_argument]
    at {!create} / {!components} time. *)

val components : Topology.t -> spec list -> int array
(** The link partition: entry [i] is the dense component index of link
    [i], where two links share a component iff some flow's route
    crosses both (directly or transitively). Components are numbered in
    order of their smallest link id. Links no route touches form
    singleton components. *)

type t

val create :
  ?seed:int ->
  ?shards:int ->
  ?epoch:float ->
  ?audit:bool ->
  Topology.t ->
  spec list ->
  t
(** Plan and instantiate a sharded trial: components are assigned
    round-robin to [min shards components] shards (default [shards]
    1 — plain sequential execution through the same code path), each
    shard gets a full [Runner.create_topo ~seed] plus an
    auditor when [audit] (default true), and every spec lands in the
    shard owning its component. [epoch] (default 0.25 s) is the barrier
    window for {!run}. Raises [Invalid_argument] on [shards < 1], a
    non-positive epoch, or route/topology mismatches in the specs. *)

val run : ?pool:Proteus_parallel.Pool.t -> t -> until:float -> unit
(** Advance all shards to [until] in epoch windows: every shard reaches
    the window horizon before any crosses it. With [pool] (and more
    than one shard) the windows fan across the pool's domains —
    [Pool.map] joins each batch, publishing every domain's writes
    before the next window. May be called repeatedly with increasing
    horizons; fluid aggregates are synced to each horizon (see
    [Runner.run]). *)

val num_shards : t -> int
(** Actual shard count after clamping to the component count. *)

val num_flows : t -> int

val flow : t -> int -> Runner.flow
(** Flow handle by spec index (in its owning shard's runner). *)

val flow_stats : t -> int -> Flow_stats.t
val flow_label : t -> int -> string

val shard_of_flow : t -> int -> int
(** Owning shard of spec index [i]. *)

val shard_of_link : t -> int -> int
(** Owning shard of link id [i] — the one whose packet traffic can
    cross it. Every shard instantiates every link; read per-link state
    (fluid totals, backlogs) from the owner. *)

val link_at : t -> int -> Link.t
(** Link [i] as instantiated in its owning shard. *)

val fluid_totals : t -> int -> (float * float * float * float) option
(** [(bytes_in, bytes_out, bytes_shed, backlog)] of link [i]'s fluid
    aggregate in its owning shard ([None] when the link carries no
    fluid classes). Totals are synced to the last {!run} horizon. *)

val runner_at : t -> int -> Runner.t
(** Shard [s]'s runner (diagnostics; flows/links are best reached
    through the spec- and link-indexed accessors). *)

val assert_quiesced : t -> unit
(** [Audit.assert_quiesced] on every shard's auditor (packet and hop
    conservation per shard, fluid conservation per link). *)

val events_fired : t -> int
(** Total events fired across all shards (diagnostic). *)
