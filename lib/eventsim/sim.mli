(** Simulation kernel: a virtual clock and a schedule of callbacks.

    Handlers scheduled with {!at} or {!after} run with the clock set to
    their firing time. The kernel is single-threaded and deterministic:
    every event carries a global sequence number assigned at scheduling
    time, and events at equal times fire in scheduling order — whichever
    internal structure holds them.

    Internally every event occupies a cell in a free-list pool (a
    {!handler} id plus an unboxed [int] argument); the schedule stores
    only cell ids. Handler closures are stored once, by {!register};
    scheduling through {!at_fn} or {!lane_push} then writes only ints —
    allocation free and free of GC write barriers in steady state. This
    is the hot path used by the packet-level scenario runner.

    There is one kernel and one store for pooled cells: {!at_fn} events
    and thunks ({!at}), however far ahead, go into a hierarchical
    {!Wheel} (O(1) insert/extract, with cursor jumps across empty
    stretches); {!lane}s hold per-source FIFO streams. The run loop
    merges the two by [(time, seq)], so the firing order is that of a
    single queue sorted by time with scheduling-order ties. Nothing
    can be cancelled: a caller that may change its mind schedules an
    event that checks, when it fires, whether it still has work. *)

type t

(** The only event-kernel backend. Kept as a type so callers that still
    pass [~kernel:Wheel_kernel] (e.g. to [Runner.create]) compile; there
    is nothing to choose. *)
type kernel = Wheel_kernel

(** {2 Supervision}

    Every sim carries a {!guard}: event-count and sim-time budgets
    enforced inside the run loop, a poison flag a monitor domain can
    set to interrupt the run, and progress heartbeats (events fired,
    virtual clock) published roughly every 256 events for that monitor
    to watch. The default guard is unlimited with private atomics, so
    unsupervised runs pay only two integer/float compares per event.

    The atomics are the only cross-domain channel: the monitor reads
    the heartbeats and writes the poison flag; the simulating domain
    does the reverse. Everything else in the kernel stays
    single-domain. *)
type guard = {
  g_max_events : int;  (** fired-event budget; [max_int] = unlimited *)
  g_max_sim_time : float;  (** virtual-clock budget; [infinity] = none *)
  g_poison : int Atomic.t;
      (** 0 = run; 1 = wall-clock kill ([Wall_clock]); anything else =
          stall kill ([No_progress]). Checked every 256 fired events,
          so a poisoned livelock is interrupted promptly. *)
  g_hb_events : int Atomic.t;  (** heartbeat: total events fired *)
  g_hb_sim_us : int Atomic.t;  (** heartbeat: virtual clock, µs *)
}

(** Why a budgeted run stopped. [Event_budget] / [Sim_time_budget] are
    enforced synchronously by the run loop; [Wall_clock] / [No_progress]
    are delivered through the poison flag by an external watchdog. *)
type interrupt = Event_budget | Sim_time_budget | Wall_clock | No_progress

exception Interrupted of interrupt
(** Raised out of {!run} when a budget is exhausted or the guard is
    poisoned. The sim remains readable ({!now}, {!events_fired},
    {!pending}) but the interrupted run should be discarded, not
    resumed. *)

val set_guard : t -> guard -> unit
(** Install a guard. May be called at any time; budgets compare against
    the sim's lifetime event counter and absolute virtual clock. *)

val guard : t -> guard

val create : unit -> t
(** Fresh simulation with the clock at 0. Cheap: the wheel's slot
    arrays are small enough to be minor-heap allocations. *)

val now : t -> float
(** Current virtual time in seconds. *)

val at : t -> time:float -> (unit -> unit) -> unit
(** Schedule a handler at an absolute time (clamped to [now] if in the
    past). Raises [Invalid_argument] when [time] is NaN, infinite or
    not below {!Wheel.max_time} (about 2.3e15 s). *)

val after : t -> delay:float -> (unit -> unit) -> unit
(** Schedule a handler [delay] seconds from now (negative delays clamp
    to zero). Raises [Invalid_argument] as {!at} does, for a NaN or
    infinite [delay]. *)

type handler
(** A callback registered with one sim, valid only on that sim. *)

val register : t -> (int -> unit) -> handler
(** Store a reusable (per-flow / per-subsystem) callback in the sim's
    handler table, once, and return its id for {!at_fn} and
    {!lane_push}. Handlers live as long as the sim. *)

val no_handler : handler
(** Placeholder for a field that will hold a handler once its closure
    can be built. No sim registers it: scheduling it raises
    [Invalid_argument]. *)

val at_fn : t -> time:float -> fn:handler -> arg:int -> unit
(** Allocation-free scheduling fast path: fire handler [fn] with [arg]
    at [time]. [arg] identifies the piece of work — typically an index
    into a caller-owned ring. Equivalent to
    [at t ~time (fun () -> f arg)], for the [f] that [fn] was registered
    with, without the fresh closure. Raises [Invalid_argument] when
    [fn] is not in [t]'s handler table (e.g. {!no_handler}), or when
    [time] is refused as by {!at}. *)

(** {2 Lanes}

    A lane is a per-source FIFO event stream consumed directly by the
    run loop — an SoA ring buffer that skips both the cell pool and the
    wheel. Intended for event sources that are naturally (almost)
    time-ordered, e.g. one lane per network link whose delivery times
    are nondecreasing. The caller reserves the global sequence number
    ({!reserve_seq}) at the exact program point where {!at_fn} would
    have been called, so lane events keep their deterministic position
    in the global (time, seq) order. A push that would violate the
    lane's time-monotonicity transparently falls back to the wheel
    with the same (time, seq) — correctness never depends on the caller
    getting monotonicity right. *)

type lane

val lane : t -> lane
(** Register a fresh (empty) lane. *)

val reserve_seq : t -> int
(** Draw the next global sequence number. {!at_fn}/{!at} draw from the
    same counter, so interleaving reservations with scheduling calls
    totally orders all events. *)

val set_seq_partition : t -> index:int -> count:int -> unit
(** Declare this kernel to be shard [index] of [count] cooperating
    kernels: sequence numbers are drawn from the residue class
    [index mod count] ([index], [index + count], ...). The map is
    strictly increasing, so within the shard events fire exactly as a
    stride-1 kernel would fire them, while (time, seq) pairs stay
    globally unique across shards — the basis of the sharded runner's
    deterministic event-time barrier. Must be called before any event
    is scheduled; raises [Invalid_argument] otherwise, or when [index]
    lies outside [0, count). [count = 1] is the default (no-op)
    partition. *)

val lane_push :
  t -> lane -> time:float -> seq:int -> fn:handler -> arg:int -> unit
(** Schedule handler [fn] with [arg] at [time] (clamped to [now]) on
    the lane, with a sequence number from {!reserve_seq}. Raises
    [Invalid_argument] when [fn] is not in [t]'s handler table, when
    [time] is [neg_infinity], or when a push that falls back to the
    wheel has a time {!at} would refuse. *)

val next_is_now : t -> bool
(** Whether any scheduled event (wheel or lane) fires at {!now}.
    Lets handlers detect "nothing else happens at the current instant"
    and run follow-up work inline instead of scheduling a zero-delay
    event — the per-ACK fast-path test on the runner's hot path.
    Allocation free. *)

val run : ?until:float -> t -> unit
(** Drain the event queue, advancing the clock. With [?until], stop
    once the next event lies strictly beyond that time (the clock is
    then set to [until]). *)

val pending : t -> int
(** Number of events still queued (wheel and lanes). *)

(** {2 Kernel observability}

    Lifetime counters maintained unconditionally (plain integer bumps
    on the schedule/fire paths — no gating, no allocation). Snapshot
    them into a {!Proteus_obs.Metrics} registry to watch event-loop
    pressure. *)

val events_scheduled : t -> int
(** Events ever scheduled, lane pushes included. Work a caller runs inline instead of scheduling (the
    runner's post-ACK poll when nothing else is due) is not counted. *)

val events_fired : t -> int
(** Events dispatched. *)

val max_queued : t -> int
(** High-water mark of the event queue length. *)

val wheel_ticks : t -> int
(** Timing-wheel cursor advances. *)

val wheel_cascades : t -> int
(** Level-1 wheel refills (events scheduled more than one level-0
    span, 256 ms, ahead), counting each cursor jump across an empty
    stretch as one. *)

val wheel_max_occupancy : t -> int
(** High-water mark of wheel occupancy. *)
