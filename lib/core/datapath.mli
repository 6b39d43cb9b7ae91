(** CCP-style datapath / control split (Narayan et al., SIGCOMM '18),
    cut to what CUBIC and LEDBAT use.

    A congestion controller is expressed as two halves:

    - a {b datapath program} — a fold function over the per-ACK
      primitive {!signal}s, accumulating into named {!register}s, plus
      {!trigger}s that decide when a {!report} of the registers is
      delivered off the datapath; and
    - a {b control handler} — consumes reports and may rewrite
      registers, the congestion window among them.

    {!to_factory} lowers a (program, handler) pair onto the packet
    simulator's {!Proteus_net.Sender.S} interface — the unboxed [_m]
    meta calls — so a fold program plugs into every topology, bench and
    scenario exactly like a hand-written controller.

    {b Cost discipline.} The per-ACK path is allocation-free:
    registers and signals live in preallocated float arrays (unboxed
    stores), the in-flight count is an integer field, and the fold is a
    closure invoked with the two arrays — no float crosses a call
    boundary. The adapter refills the three signal slots before each
    fold. Triggers are only scanned on an ACK when the program has an
    [Every] trigger; an [On_loss]-only program pays nothing for them
    per ACK. Only delivering a report (rare: loss events, interval
    expiries) may box a handful of floats; the {!report} record is
    created once per flow and reused. *)

(** {1 Signals}

    One slot per primitive, in a flat [float array] the adapter refills
    before each fold. [Rtt_sample] carries the RTT in {e seconds
    exactly as the runner measured it}: folds that must match a
    seconds-based controller bit for bit (CUBIC and LEDBAT do) fold
    over the original value. *)

type signal =
  | Bytes_acked  (** Bytes acknowledged by this ACK. *)
  | Rtt_sample  (** RTT sample, seconds (exact runner measurement). *)
  | Now  (** Simulated time of this ACK, seconds. *)

val signal_index : signal -> int
(** Fixed slot of a signal in the signals array. *)

(** {1 Registers} *)

type register = { r_name : string; r_init : float }
(** A named register and its initial value. Registers persist for the
    flow's lifetime. *)

val reg : string -> float -> register
(** [reg name init]. *)

(** {1 Triggers and programs} *)

type fold = float array -> float array -> unit
(** [fold regs sigs] — fold one ACK's signals into the registers. *)

type trigger =
  | Every of float
      (** Fire when at least this many simulated seconds elapsed since
          this trigger last fired (measured from time 0 initially). *)
  | On_loss  (** Fire on every loss event. *)

type program = {
  p_name : string;  (** Sender name reported to stats/trace. *)
  p_regs : register array;
  p_cwnd : int;
      (** Index of the register holding the congestion window in
          packets; the adapter's window check reads it directly. *)
  p_on_ack : fold;  (** Runs on every ACK (duplicates included). *)
  p_triggers : trigger array;
      (** Checked in order on every loss event, and on every ACK after
          the fold when some trigger is an [Every]. *)
}

val with_overrides :
  ?interval:float -> ?consts:(string * float) list -> program -> program
(** Scenario-level parameterization without OCaml edits: [consts]
    replaces named registers' initial values; [interval] appends an
    [Every interval] trigger (handlers that only act on [Loss_event]
    reports make this observable via trace yet behavior-neutral).
    Raises [Invalid_argument] on unknown register names or a
    non-positive interval — validate first (the scenario layer checks
    names and values in [Spec.validate]) when the values come from
    user input. *)

(** {1 Reports and control handlers} *)

type cause = Interval | Loss_event

type report = {
  mutable rp_time : float;  (** Simulated time the trigger fired. *)
  mutable rp_cause : cause;
  mutable rp_seq : int;  (** Report counter for this flow, from 0. *)
  rp_regs : float array;
      (** The {e live} register array: handlers may read and write it
          (writes are the CCP control-to-datapath update path). A new
          window is installed by writing the [p_cwnd] register. *)
}

type handler = report -> unit
(** A control handler: runs synchronously when a trigger fires. Each
    report emits a [Rate_decision] trace event after the handler ran:
    [a] is 0 for [Interval] and 1 for [Loss_event], [b] the cwnd
    register. *)

val to_factory :
  program:(Proteus_net.Sender.env -> program) ->
  handler:handler ->
  Proteus_net.Sender.factory
(** Lower a program source and a control handler onto
    {!Proteus_net.Sender.S}. The program is built once per flow from
    the sender's environment; the handler keeps per-flow state in the
    live register file it is handed ([rp_regs]). Raises
    [Invalid_argument] at flow-creation time if [p_cwnd] is not a
    register index. *)
