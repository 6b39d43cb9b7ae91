(** CCP-style datapath / control split (Narayan et al., SIGCOMM '18).

    A congestion controller is expressed as two halves:

    - a {b datapath program} — pure fold functions over the per-ACK
      primitive {!signal}s, accumulating into named {!register}s, plus
      {!trigger}s that decide when a {!report} of the registers is
      delivered off the datapath; and
    - a {b control handler} — consumes reports, may rewrite registers,
      and installs a new congestion window / pacing rate through
      {!actions}.

    {!to_factory} lowers any (program, handler) pair onto the packet
    simulator's {!Proteus_net.Sender.S} interface — the unboxed [_m]
    meta calls — so a fold program plugs into every topology, bench and
    scenario exactly like a hand-written controller.

    {b Cost discipline.} The per-ACK path is allocation-free:
    registers and signals live in preallocated float arrays (unboxed
    stores), adapter scalars (inflight, pacing clock, byte counters)
    live in one more float array, and folds are closures invoked with
    the two arrays — no float crosses a call boundary. Of the nine
    {!signal}s the adapter refills only those the program declares in
    [p_reads], plus those its [When] triggers read (CCP's rule: fold
    only what the program names); CUBIC pays for two stores per ACK,
    not nine and a division. Triggers are
    only scanned on an ACK when the program has one that can fire
    there ([Every] or [When]); an [On_loss]-only program pays nothing
    for them per ACK. Only delivering
    a report (rare: loss events, interval expiries) may box a handful
    of floats; the {!report} and {!actions} records themselves are
    created once per flow and reused. *)

(** {1 Signals}

    One slot per primitive, in a flat [float array] the adapter refills
    before each fold, for the signals the program reads (see
    [p_reads]); every other slot holds NaN, so a fold that reads a
    signal it did not declare computes NaN rather than a stale value.
    The set follows CCP's ACK scope, with one
    addition: [Rtt_sample] carries the RTT in {e seconds exactly as the
    runner measured it}, because the microsecond round trip
    [rtt *. 1e6 *. 1e-6] does not round-trip in floating point and
    folds that must match a seconds-based controller bit for bit
    (CUBIC and LEDBAT do) fold over the original value. [Rtt_sample_us] is the CCP-compatible
    derived view. *)

type signal =
  | Bytes_acked  (** Bytes acknowledged by this ACK. 0 on loss events. *)
  | Bytes_misordered
      (** Bytes of this ACK that arrived out of order (duplicate or
          reordered delivery: sequence below the highest ACKed). *)
  | Lost_sample  (** Packets reported lost by this event (1 on loss). *)
  | Rtt_sample_us  (** RTT sample, microseconds ([Rtt_sample *. 1e6]). *)
  | Rtt_sample
      (** RTT sample, seconds (exact runner measurement). Stale — the
          previous ACK's value — on loss events. *)
  | Rate_outgoing
      (** Sender throughput estimate, bytes/s: cumulative bytes sent
          over the time since the first transmission. *)
  | Rate_incoming
      (** Delivery rate estimate, bytes/s: cumulative bytes delivered
          over the time since the first transmission. When the runner
          supplies it this is the receiver-side goodput (duplicate ACK
          bytes excluded); through the float-argument [Sender] calls it
          falls back to the adapter's own ACK byte count (duplicates
          included). *)
  | Inflight
      (** Packets currently in flight. When the runner supplies it this
          is its authoritative ring occupancy; through the float-argument
          [Sender] calls, the adapter's own sent-minus-ACKed estimate. *)
  | Now  (** Simulated time of this event, seconds. *)

val num_signals : int

val signal_index : signal -> int
(** Fixed slot of a signal in the signals array. *)

val signal_name : signal -> string
(** Lower-snake-case CCP-style name (["bytes_acked"], ...). *)

(** {1 Registers} *)

type register = {
  r_name : string;
  r_init : float;
  r_volatile : bool;
      (** Volatile registers reset to [r_init] after a report fires
          (CCP report-scope semantics); non-volatile registers persist
          for the flow's lifetime. *)
}

val reg : ?volatile:bool -> string -> float -> register
(** [reg name init] — [volatile] defaults to [false]. *)

(** {1 Expressions}

    A bounded well-typed grammar for {e generated} programs (the
    property-fuzzing harness builds random folds from it) and for
    {!trigger} predicates. Hand-written ports use plain OCaml closures
    instead — the compiled-closure form keeps bit-exact float ordering
    and costs nothing per ACK. *)

type binop = Add | Sub | Mul | Div | Min | Max
type cmp = Lt | Le | Gt | Ge | Eq

type expr =
  | Sig of signal
  | Reg of int  (** Register by index. *)
  | Const of float
  | Bin of binop * expr * expr
  | Ite of cmp * expr * expr * expr * expr
      (** [Ite (c, a, b, t, e)] = if [cmp c a b] then [t] else [e]. *)

val eval : expr -> regs:float array -> sigs:float array -> float
(** Total: division by zero and NaN propagate IEEE-style; comparisons
    involving NaN are false. *)

val expr_signals : expr -> signal list
(** The signals an expression reads, each once, in slot order: what a
    program built from expressions declares in [p_reads]. *)

type fold = float array -> float array -> unit
(** [fold regs sigs] — fold one event's signals into the registers. *)

val fold_of_assigns : (int * expr) list -> fold
(** Sequential register assignments [(dst, e); ...]: each assignment
    sees the previous ones' writes. Raises [Invalid_argument] if a
    [dst] or [Reg] index is used before {!validate_program} can check
    it — bounds are rechecked there. *)

(** {1 Triggers and programs} *)

type trigger =
  | Every of float
      (** Fire when at least this many simulated seconds elapsed since
          this trigger last fired (measured from time 0 initially). *)
  | On_loss  (** Fire on every loss event. *)
  | When of cmp * expr * expr  (** Fire when the predicate holds. *)

type program = {
  p_name : string;  (** Sender name reported to stats/trace. *)
  p_regs : register array;
  p_cwnd : int;
      (** Index of the register holding the congestion window in
          packets; the adapter's window check reads it directly. *)
  p_reads : signal list;
      (** The signals [p_on_ack] and [p_on_loss] read. The adapter
          fills these slots (and those read by [When] triggers, which
          it derives from their expressions) before each fold; the
          other slots hold NaN. On a loss event the RTT slots keep the
          previous ACK's sample (0 before any ACK). *)
  p_on_ack : fold;  (** Runs on every ACK (duplicates included). *)
  p_on_loss : fold;  (** Runs on every loss notification. *)
  p_triggers : trigger array;
}

val validate_program : program -> (unit, string) result
(** Structural checks: non-empty distinct register names, [p_cwnd] in
    range, [Every] intervals finite and positive, trigger-expression
    register indices in bounds. Folds are opaque closures and cannot be
    checked — {!fold_of_assigns} programs are safe by construction. *)

val with_overrides :
  ?interval:float -> ?consts:(string * float) list -> program -> program
(** Scenario-level parameterization without OCaml edits: [consts]
    replaces named registers' initial values; [interval] appends an
    [Every interval] trigger (handlers that only act on [Loss_event]
    reports make this observable via trace yet behavior-neutral).
    Raises [Invalid_argument] on unknown register names or a
    non-positive interval — validate first (the scenario layer checks
    names against [Protocols.datapath_registers]) when the values come
    from user input. *)

(** {1 Reports, actions, control handlers} *)

type cause = Interval | Loss_event | Predicate

type report = {
  mutable rp_time : float;  (** Simulated time the trigger fired. *)
  mutable rp_cause : cause;
  mutable rp_seq : int;  (** Report counter for this flow, from 0. *)
  rp_regs : float array;
      (** The {e live} register array: handlers may read and write it
          (writes are the CCP control-to-datapath update path). *)
}

type actions = {
  mutable a_cwnd : float;
      (** New congestion window, packets; NaN (the reset value) means
          "no change". Installed into the [p_cwnd] register after all
          of this event's reports are delivered and volatile registers
          reset. *)
  mutable a_rate_pps : float;
      (** Pacing rate, packets/s; NaN means "no change", [0.] disables
          pacing. When pacing is active the adapter spaces transmits
          [1/rate] apart. *)
}

type handler = report -> actions -> unit
(** A control handler: runs synchronously when a trigger fires. *)

val to_factory :
  program:(Proteus_net.Sender.env -> program) ->
  handler:handler ->
  Proteus_net.Sender.factory
(** Lower a program source and a control handler onto
    {!Proteus_net.Sender.S}. The program
    is built once per flow from the sender's environment; the handler
    keeps per-flow state in the live register file it is handed
    ([rp_regs]). Raises [Failure] at flow-creation time if the program
    fails {!validate_program}. *)
