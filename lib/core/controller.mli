(** The Proteus rate controller: a {!Proteus_net.Sender.S}
    implementation driving PCC's online-learning control loop.

    The sender paces packets at a trial rate per monitor interval and
    climbs the utility surface (§3):

    - {e Starting}: double the rate each MI until utility drops, then
      revert one step and probe.
    - {e Probing}: trial pairs of rates [r(1±eps)] in random order.
      Vivace moves after 2 consecutive agreeing pairs; Proteus trials 3
      pairs and takes the majority vote (§5, "Control Algorithm:
      Majority Rule") — faster and more robust under noise.
    - {e Moving}: step the rate along the decided direction with a
      confidence amplifier and a swing boundary; fall back to probing
      when utility decreases.

    Completed MIs pass through the {!Ack_filter} (per-ACK) and
    {!Tolerance} (per-MI / trending) noise pipeline before utility
    evaluation. The utility function can be swapped mid-flow
    ({!set_utility}) with no controller restart — the paper's
    flexibility goal. *)

type probing_mode =
  | Consistent2  (** Vivace: two consecutive agreeing pairs. *)
  | Majority3  (** Proteus: majority of three pairs. *)

type config = {
  utility : Utility.t;
  tolerance : Tolerance.config;
  use_ack_filter : bool;
  probing_mode : probing_mode;
  epsilon : float;  (** Probing step, default 0.05. *)
  initial_rate_mbps : float;
  min_rate_mbps : float;
  max_rate_mbps : float;
}
(** A moving-phase step changes the rate by at most half of it, up or
    down (Vivace's swing boundary). *)

val default_config : utility:Utility.t -> config
(** Proteus noise pipeline, majority-rule probing, eps 0.05, rates in
    [\[0.05, 2000\]] Mbps starting from 2 Mbps. *)

val vivace_config : utility:Utility.t -> config
(** Vivace baseline: fixed gradient tolerance only, 2-pair consistent
    probing. *)

type t

val create : config -> Proteus_net.Sender.env -> t
val factory : config -> Proteus_net.Sender.factory

include Proteus_net.Sender.S with type t := t

val set_utility : t -> Utility.t -> unit
(** Dynamic utility (re-)selection — "a simple API call" (§3). Applies
    from the next evaluated MI onward. *)

val utility_name : t -> string
val rate_mbps : t -> float
(** Current base sending rate. *)

val mi_count : t -> int
(** Completed MIs so far (tests/debug). *)

val moments_fields : t -> (string * float) list
(** {!Tolerance.moments_fields} of this flow's tolerance, for the
    golden tests. *)

(** The utilities of one probing round and the rate decision they make:
    [r(1+eps)] and [r(1-eps)] trialled for each of [npairs] pairs.
    Exposed so that tests can hold it to a reference implementation. *)
module Votes : sig
  type t

  val create : unit -> t

  val reset : t -> npairs:int -> unit
  (** Begin a round of [npairs] (2 or 3) pairs. *)

  val slot : pair:int -> up:bool -> int
  (** Where pair [pair]'s upper ([up]) or lower trial reports. *)

  val add : t -> slot:int -> u:float -> unit
  (** Record a trial's utility; each slot reports at most once a
      round. *)

  val complete : t -> bool
  (** Every pair has reported both trials. *)

  val direction : t -> probing_mode -> int
  (** Of a complete round: 1 (raise the rate), -1 (lower it) or 0 (no
      clear direction: probe again). A pair votes for the trial with
      the higher utility; {!Consistent2} needs both pairs to agree,
      {!Majority3} two of three. *)

  val gradient : t -> epsilon:float -> base_rate:float -> float
  (** Mean utility difference per Mbps across the pairs of a complete
      round around [base_rate] (bytes/s); 0 when the rate spread is not
      positive. *)

  val mean_utility : t -> up:bool -> float
  (** Mean utility of a complete round's upper (or lower) trials. *)
end
